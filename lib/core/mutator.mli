(** Algorithm 1: fitness-guided generation of the next test.

    Picks a parent from Q_priority with fitness-proportional probability,
    an attribute with sensitivity-proportional probability, and a new value
    for that attribute from a discrete Gaussian centred on the old value
    with σ = |Ai|/5 (§3). The offspring is rejected if already executed or
    pending. *)

type params = {
  sigma_fraction : float;  (** σ as a fraction of axis cardinality; paper: 1/5 *)
  max_attempts : int;
      (** how many parent/axis/value draws to try before giving up and
          falling back to a random point *)
  uniform_axis_choice : bool;
      (** ablation switch: ignore sensitivity and pick the mutated axis
          uniformly *)
  uniform_value_choice : bool;
      (** ablation switch: replace the Gaussian magnitude distribution with
          a uniform draw over the axis *)
  dynamic_sigma : bool;
      (** extension (the paper leaves dynamic sigma to future work): scale
          sigma by how the currently explored vicinity has been paying off
          -- hot axes get finer steps (exploit locally), cold axes wider
          jumps (escape) *)
}

val default_params : params
(** σ = |Ai|/5, 40 attempts, both ablation switches off — the paper's
    Algorithm 1. *)

type proposal = {
  point : Afex_faultspace.Point.t;
  mutated_axis : int option;  (** [None] when the proposal is random *)
}

type stats = {
  mutable proposals : int;  (** calls to {!next} *)
  mutable masked : int;  (** accepted proposals mutated under a pin mask *)
  mutable rejects : int;
      (** unmasked attempts rejected (duplicate, pending, out of space) *)
  mutable masked_rejects : int;
      (** masked attempts rejected — when this dominates, masking is
          burning the attempt budget and the search is degrading to the
          random fallback *)
  mutable random_fallbacks : int;
      (** times the attempt budget ran out and a uniform random point was
          issued instead of a mutation *)
}
(** Why candidate generation went the way it did. The random fallback
    used to be indistinguishable from deliberate random exploration; these
    counters attribute it to its cause, so mutation masking cannot
    silently turn the session into random search. *)

val create_stats : unit -> stats
val copy_stats : stats -> stats

val sigma_for : params -> Afex_faultspace.Axis.t -> float

type kernels
(** The discrete Gaussian of each axis at its static sigma
    ({!Afex_stats.Dist.gaussian}), built on the axis's first mutation and
    kept: a draw then costs no [exp] and no allocation. At most two
    floats per axis value. Owned by one explorer; never shared. *)

val kernels : params -> Afex_faultspace.Subspace.t -> kernels
(** The kernels for the subspace's axes at the static sigma of [params];
    {!mutate} must be called with the same [params] and subspace. *)

val mutate :
  ?mask:bool array ->
  kernels:kernels ->
  params ->
  Afex_stats.Rng.t ->
  Afex_faultspace.Subspace.t ->
  Sensitivity.t ->
  parent:Test_case.t ->
  Afex_faultspace.Point.t * int
(** One mutation step: returns the offspring and the mutated axis (the
    offspring may coincide with an executed test; the caller dedupes).
    With [mask], pinned ([true]) axes are never chosen for mutation — the
    FairFuzz move for parents that reached a rare block: hold the axes
    that got them there, explore the rest. [kernels] supplies the
    Gaussian of each axis; under [dynamic_sigma] the sigma changes with
    every call, so a kernel is built for the call instead.
    @raise Invalid_argument if the mask length differs from the subspace
    dimension or every axis is pinned. *)

val next :
  ?stats:stats ->
  ?mask:(Test_case.t -> bool array option) ->
  kernels:kernels ->
  params ->
  Afex_stats.Rng.t ->
  Afex_faultspace.Subspace.t ->
  Sensitivity.t ->
  queue:Pqueue.t ->
  history:History.t ->
  is_pending:(Afex_faultspace.Point.t -> bool) ->
  proposal
(** Full candidate generation: repeated mutation attempts, falling back to
    fresh uniform points when the queue is empty or the neighbourhood is
    exhausted. The result is guaranteed novel w.r.t. history and pending
    (if any novel point remains findable within the attempt budget;
    otherwise the last random draw is returned regardless). [mask] is
    consulted per sampled parent and applies {!mutate}'s masking;
    [stats], when supplied, tallies accepts, rejects, and fallbacks by
    cause; [kernels] is passed to {!mutate}. Neither [mask] nor [stats]
    changes the draw sequence of an unmasked call. *)
