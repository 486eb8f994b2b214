(** A fault exploration session (§6): drive the explorer against an
    executor until an iteration budget or a search target is met, then
    summarize everything the paper's tables report. *)

type stop = {
  matches : Test_case.t -> bool;
  count : int;
      (** stop once this many {e distinct} fault-space points matched
          (rediscovering the same fault does not count twice) *)
}

type result = {
  strategy : string;
  iterations : int;
  executed : Test_case.t list;  (** chronological *)
  failed : int;  (** injections that made the test fail (incl. crash/hang) *)
  crashed : int;
  hung : int;
  triggered : int;
  covered_blocks : int;
  total_blocks : int;
  coverage_percent : float;
  distinct_failure_traces : int;
      (** exactly-distinct injection stacks among failing tests — the
          "unique failures" of Table 5 *)
  distinct_crash_traces : int;
  failure_clusters : int;  (** Levenshtein redundancy clusters (§5) *)
  crash_clusters : int;
  crash_cluster_detail : Test_case.t Afex_quality.Clustering.cluster list;
      (** the crash redundancy clusters themselves (largest first, one
          test case per member), built once from the explorer's online
          index and reused by {!crash_cluster_representatives} *)
  simulated_ms : float;
  sensitivity : float array;  (** final axis probabilities *)
  mutator : Mutator.stats;
      (** candidate-generation accounting (masked accepts/rejects and
          random fallbacks by cause) — how much of the session was genuine
          guided mutation vs. attempt-budget fallback *)
  rare_blocks : int option;
      (** blocks still below the rarity cutoff at session end, when
          rarity guidance was enabled (§7.2's recovery-code sliver) *)
  stopped_early : bool;
  stop_iteration : int option;
      (** iteration at which the [stop] target was satisfied *)
}

val summarize :
  Explorer.t ->
  total_blocks:int ->
  stopped_early:bool ->
  stop_iteration:int option ->
  result
(** Fold an explorer's final state into a {!result}. Exposed so drivers
    other than {!run} — notably the multicore pool in [afex_cluster] —
    can report through the same summary type. *)

val run :
  ?transform:(Afex_faultspace.Point.t -> Afex_faultspace.Point.t) ->
  ?stop:stop ->
  ?time_budget_ms:float ->
  iterations:int ->
  Config.t ->
  Afex_faultspace.Subspace.t ->
  Executor.t ->
  result
(** Explores until the iteration budget, the [stop] target, or the
    simulated wall-clock [time_budget_ms] is exhausted — the three stopping
    rules of §6.4 step 6 ("after some specified amount of time, after a
    number of tests executed, or after a given threshold is met"). *)

val failure_curve : result -> int array
(** Cumulative failed-test count after each executed test, in order
    (Fig. 8): element [i] counts the failures among the first [i + 1]
    entries of [executed]. *)

val top_faults : result -> n:int -> Test_case.t list
(** Highest measured impact first. *)

val crash_cluster_representatives : result -> Test_case.t list
(** One representative per crash-stack redundancy cluster, the paper's
    "map of faults, clustered by degree of redundancy". *)

val found_matching : result -> (Test_case.t -> bool) -> int
(** Number of executed tests satisfying a predicate. *)

val pp_summary : Format.formatter -> result -> unit

(** {2 Union spaces}

    Fault space descriptions are unions of subspaces (Fig. 4 unions two
    hyperspaces with [";"]); a union is explored by splitting the budget
    across its members proportionally to their cardinality. *)

type space_result = {
  per_subspace : (string option * result) list;
      (** subspace label paired with its session result *)
  total_iterations : int;
  total_failed : int;
  total_crashed : int;
}

val run_space :
  ?stop:stop ->
  iterations:int ->
  Config.t ->
  Afex_faultspace.Space.t ->
  Executor.t ->
  space_result
(** Each subspace gets a fresh explorer seeded from the session seed and
    its index, with at least one iteration per non-empty share. *)

val pp_space_summary : Format.formatter -> space_result -> unit
