(** Synthetic target generator.

    The generator manufactures program models whose fault-impact surface has
    the same *kind* of structure the paper observes in real systems (§2,
    Fig. 1): impact clusters induced by code modularity. Three mechanisms
    plant structure along the three axes used throughout the evaluation:

    - {b Xtest}: tests come in functional groups sharing a trace template,
      so neighbouring tests reach the same callsites;
    - {b Xfunc}: each module draws its library calls from a contiguous slice
      of the category-ordered function list, so neighbouring functions are
      handled by the same (possibly buggy) module code;
    - {b Xcall}: traces contain loop segments (a callsite repeated), so
      neighbouring call numbers land on the same callsite.

    Error-handling quality is assigned per module: most modules are robust,
    a few are flaky (clean test failures) and a few are buggy (crashes,
    sometimes inside their own recovery code). *)

type reaction_mix = {
  handled : float;
  test_fails : float;
  crash : float;
  crash_in_recovery : float;
  hang : float;
}
(** Sampling weights for a callsite's default reaction. *)

val robust_mix : reaction_mix
val flaky_mix : reaction_mix
val buggy_mix : reaction_mix

type config = {
  name : string;
  version : string;
  seed : int;
  n_modules : int;
  n_buggy_modules : int;
  n_flaky_modules : int;
  robust : reaction_mix;
  flaky : reaction_mix;
  buggy : reaction_mix;
  functions : string list;  (** pool, in canonical (category-grouped) order *)
  funcs_per_module : int * int;  (** contiguous slice size, min/max *)
  sites_per_module : int * int;
  n_tests : int;
  test_group_size : int;
  modules_per_group : int;
  segments_per_template : int * int;
  repeat_per_segment : int * int;  (** loop lengths *)
  mutation_rate : float;  (** per-segment template perturbation per test *)
  errno_override_rate : float;
      (** chance a callsite reacts differently to one specific errno *)
  blocks_per_site : int * int;
  recovery_blocks_per_site : int * int;
  baseline_coverage : float;
      (** target fraction of total blocks covered by the clean suite *)
  mean_test_duration_ms : float;
}

val default_config : config
(** A small, fully-robust starting point; override fields as needed. *)

val generate : config -> Target.t

(** Post-generation surgery, used to plant the paper's named bugs
    (MySQL double-unlock, MySQL errmsg read, Apache strdup OOM). *)

val add_callsite :
  Target.t ->
  module_name:string ->
  func:string ->
  location:string ->
  stack:string list ->
  behavior:Behavior.t ->
  recovery_blocks:int ->
  Target.t * int
(** Appends a callsite (fresh blocks are appended to the block range) and
    returns the new target and the site's id. *)

val splice :
  Target.t -> test_ids:int list -> pos:int -> site:int -> repeat:int -> Target.t
(** Inserts [repeat] visits to [site] into each listed test's trace at
    position [pos] (clamped to the trace length), in list order. The
    target is copied and validated once, however many tests change. *)

val merge : name:string -> version:string -> Target.t list -> Target.t
(** Concatenates several targets into one suite: callsite ids, block ids and
    test ids are re-based; test order follows the argument order. Used to
    assemble the 29-test coreutils suite from the per-utility models. *)

val remap_behavior :
  Target.t -> (Callsite.t -> Behavior.t option) -> Target.t
(** Rewrites the behaviour of every callsite for which the function returns
    [Some]; used to plant targeted reactions (e.g. make [malloc] failures in
    [ln]/[mv] abort cleanly, as glibc-style [xmalloc] wrappers do). *)
