(** The explorer: the stateful search engine at the centre of AFEX (§6.1).

    It hands out fault-injection candidates ({!next}) and learns from their
    measured outcomes ({!report}). Separating the two lets the cluster
    layer keep many candidates in flight on different node managers, while
    {!Session} drives the same object sequentially. *)

type t

val create :
  ?transform:(Afex_faultspace.Point.t -> Afex_faultspace.Point.t) ->
  Config.t ->
  Afex_faultspace.Subspace.t ->
  Executor.t ->
  t
(** [transform] maps search coordinates to target coordinates before the
    fault is materialized (identity by default; the Table 4 structure-loss
    experiment passes a {!Afex_faultspace.Shuffle} here). *)

val next : t -> Mutator.proposal option
(** Next candidate to execute. [None] only for the exhaustive strategy,
    once the space is exhausted. The candidate is tracked as pending until
    reported. *)

val scenario_for : t -> Mutator.proposal -> Afex_faultspace.Scenario.t
(** The concrete fault scenario for a proposal (transform applied). This
    is exactly what travels to a node manager on the wire. *)

val fault_for : t -> Mutator.proposal -> Afex_injector.Fault.t
(** The proposal decoded as a single fault — only valid on standard
    3-axis (plus optional errno/retval) spaces.
    @raise Invalid_argument on compound spaces. *)

val report : t -> Mutator.proposal -> Afex_injector.Outcome.t -> Test_case.t
(** Feed back the outcome of a candidate returned by {!next}: scores
    impact and fitness (relevance- and feedback-weighted), updates
    coverage, Q_priority, History, sensitivity, and ages the queue. *)

val execute : t -> Mutator.proposal -> Test_case.t
(** [report] after running the fault on the session's executor — the
    sequential convenience used by {!Session}. *)

(** Observable state *)

val iterations : t -> int
(** Number of reported (executed) tests. *)

val pending_count : t -> int
(** Candidates handed out by {!next} and not yet {!report}ed — the
    explorer's in-flight window when the cluster layer pipelines it. *)

val records : t -> Test_case.t list
(** Chronological. *)

val failed_count : t -> int
val crashed_count : t -> int
val hung_count : t -> int
val triggered_count : t -> int
val covered_blocks : t -> int
val simulated_ms : t -> float
(** Simulated wall-clock: test durations plus per-test setup. *)

val failure_index : t -> Afex_quality.Index.t
(** Online redundancy clusters over the injection stacks of triggered
    failing tests, maintained incrementally by {!report} — {!Session}
    reads counts and clusters from here instead of re-clustering the
    whole history at summary time. *)

val crash_index : t -> Afex_quality.Index.t
(** Same, over crash stacks. Observation order is chronological, so the
    items align with the crashing records in {!records} order. *)

val sensitivity_probabilities : t -> float array

val rarity_histogram : t -> Rarity.t option
(** The global block hit-count histogram, present iff the configuration
    enables rarity guidance. Fed by {!report} before each outcome's own
    coverage is folded in. *)

val mutator_stats : t -> Mutator.stats
(** Candidate-generation accounting: accepted/rejected mutations (masked
    and unmasked separately) and random fallbacks after attempt-budget
    exhaustion. All zeros for the non-guided strategies. *)

val queue_snapshot : t -> Test_case.t list
val history_size : t -> int
val subspace : t -> Afex_faultspace.Subspace.t
val config : t -> Config.t

(** {2 Checkpointing}

    A snapshot is the complete mutable state of the search relative to its
    configuration: everything [create]-time inputs (config, subspace,
    executor, transform) do {e not} determine. Restoring a snapshot and
    continuing produces bit-identical history to the uninterrupted run —
    the invariant the checkpoint layer's crash-resume guarantee rests
    on. *)

module Snapshot : sig
  type explorer := t

  type t = {
    rng_state : int64;
    issued : int;
    iterations : int;
    failed : int;
    crashed : int;
    hung : int;
    triggered : int;
    simulated_ms : float;
    cursor_consumed : int;  (** exhaustive cursor position *)
    covered : Afex_stats.Bitset.t;
        (** covered blocks; {!restore} widens it to the target's
            [total_blocks] *)
    records : Test_case.t list;
        (** chronological: births [since+1 .. iterations] of the capture
            ({!restore} needs the whole history, from birth 1) *)
    queue : int list;  (** Q_priority as birth ids, {!queue_snapshot} order *)
    seeds : Afex_faultspace.Point.t list;  (** unconsumed analysis seeds *)
    sensitivity : float list array;
    intern_frames : string array;
    feedback : int array list;
    failure_index : Afex_quality.Index.dump;
    crash_index : Afex_quality.Index.dump;
    rarity : (int * (int * int) list) option;
        (** {!Rarity.dump}, present iff rarity is enabled *)
    rare_blocks : (int * int) list;
        (** (birth, rarest covered block) pairs of queued tests, ascending
            by birth — at most the queue capacity *)
    mutator : Mutator.stats;  (** a private copy of the tallies *)
  }

  val capture : ?since:int -> explorer -> t
  (** [since] (default 0) omits the records born at or before it: a
      caller that already holds them — the checkpoint's record log —
      pays only for the newer ones, since the walk stops there. Only a
      queued test's fitness still changes (aging), so records older
      than every queued test are final.
      @raise Invalid_argument if any candidate is still pending —
      snapshots are only meaningful at batch boundaries, when every
      issued candidate has been reported. *)
end

val capture : ?since:int -> t -> Snapshot.t
(** Alias of {!Snapshot.capture}. *)

val restore :
  ?transform:(Afex_faultspace.Point.t -> Afex_faultspace.Point.t) ->
  Config.t ->
  Afex_faultspace.Subspace.t ->
  Executor.t ->
  Snapshot.t ->
  (t, string) result
(** Rebuild an explorer from a snapshot taken under the same config,
    subspace, executor and transform (the caller guarantees the match;
    the checkpoint layer records campaign metadata for exactly this).
    Internal consistency is revalidated — record birth order, record
    points inside the subspace, statistic tallies, queue references,
    cursor position, coverage bounds — and any
    violation is a clean [Error], never an exception, so a corrupt
    snapshot that slipped past the file checksum still cannot crash the
    resuming process. *)
