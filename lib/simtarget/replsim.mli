(** A deterministic n-replica consensus target: leader election, log
    replication, and replica recovery from backup snapshots, driven
    round-by-round under churn.

    Every other simtarget is a single process whose impact surface is
    per-callsite errno handling. [Replsim] opens the distributed surface
    the paper's §6 multi-fault scenarios aim at: faults land on
    ⟨round, replica, kind, peer⟩ coordinates, recovery windows are the
    rare code the search must reach, and impact comes from {e cluster
    invariants} (log-prefix agreement, committed-entry durability,
    leader uniqueness, liveness-within-k-rounds) instead of a crashing
    callsite.

    The simulation is a pure function of [(config, faults)]: no wall
    clock, no global state, one seeded RNG stream for the churn
    schedule. Identical inputs produce bit-identical results on any
    host at any concurrency, which is what lets the pool, the async
    event loop, and checkpoint/resume all drive it unchanged.

    Two {e planted deep bugs} require a correlated two-fault scenario:

    - {b stale-term revote}: a replica recovering from a fault-stale
      backup re-enters the vote protocol if the leader is killed inside
      its recovery window — two simultaneous leaders, a
      leader-uniqueness violation;
    - {b recovery crash}: killing a replica whose backup catch-up
      stream is currently severed by an ack-drop fault aborts its
      recovery state machine — a recovery-crash violation.

    Single faults (and the baseline churn alone) cannot reach either:
    they only cover the partial-condition blocks that give the guided
    search its gradient. *)

type kind =
  | Kill  (** crash the replica at the given round (mid-recovery kills
              restart recovery from the backup) *)
  | Drop_acks
      (** the network drops every message from [peer] to [replica] for
          a window of [drop_window] rounds *)
  | Stale_backup
      (** freeze the replica's backup snapshot: later recoveries reload
          an ever-staler state *)
  | Delayed_rejoin
      (** extend the replica's next (or current) recovery window by
          [recovery_rounds] extra rounds *)

val kind_to_string : kind -> string
val kind_of_string : string -> (kind, string) result
val all_kinds : kind list

type fault = { round : int; replica : int; kind : kind; peer : int }
(** [peer] is the message source for [Drop_acks]; other kinds ignore it. *)

type config = {
  n : int;  (** replicas (>= 3) *)
  rounds : int;
  seed : int;  (** churn-schedule seed *)
  churn_period : int;  (** a scheduled recovery every this many rounds *)
  recovery_rounds : int;  (** rounds a recovering replica is out *)
  backup_period : int;  (** snapshot-to-backup cadence *)
  drop_window : int;  (** rounds a [Drop_acks] fault stays active *)
  liveness_k : int;  (** max rounds without a commit before a violation *)
  round_ms : float;  (** simulated wall-clock per round *)
}

type violation = {
  invariant : string;
      (** one of [leader-uniqueness], [recovery-crash],
          [log-prefix-agreement], [committed-durability], [liveness] *)
  v_round : int;
  v_replica : int;
  site : string list;
      (** synthetic stack, stable per violation site (never embeds round
          or replica numbers), so redundancy clustering works unchanged *)
}

type run_result = {
  rounds_run : int;  (** rounds simulated before the run ended *)
  commits : int;  (** entries committed (client-acknowledged) *)
  elections : int;
  recoveries : int;
  violation : violation option;  (** first violation; the run stops there *)
  coverage : Afex_stats.Bitset.t;
  triggered : bool;  (** an injected fault perturbed the execution *)
  leader_trace : int array;  (** leader id per round, -1 when none *)
  elapsed_ms : float;
}

type cluster

val make :
  ?rounds:int ->
  ?seed:int ->
  ?churn_period:int ->
  ?recovery_rounds:int ->
  ?backup_period:int ->
  ?drop_window:int ->
  ?liveness_k:int ->
  ?round_ms:float ->
  n:int ->
  unit ->
  cluster
(** Builds the cluster, precomputes the seeded churn schedule, and runs
    the fault-free baseline once (memoized; exposed via {!baseline}).
    While the baseline runs, [make] also keeps its state at the start of
    every 16th round (at most 64 times, spread evenly over longer runs):
    replica records, coverage and counters. Each snapshot stores the
    longest replica log once and shares it with every replica whose log
    is a prefix of it; ledger and leader trace are read from the
    baseline's own arrays.
    Defaults: rounds 400, seed 42, churn every 7 rounds, recovery 5
    rounds, backup every 8, drop window 6, liveness 30, 0.05 ms/round.
    @raise Invalid_argument on [n < 3], [rounds < 1], a non-positive
    period, or [recovery_rounds >= 2 * churn_period] (the baseline must
    keep a quorum up, or churn alone violates liveness). *)

val config : cluster -> config
val baseline : cluster -> run_result
(** The fault-free run. Its [leader_trace] is the array runs resume
    from: read it, never write it. *)

val churn_schedule : cluster -> (int * int) list
(** [(round, replica)] recovery events, chronological. *)

val blocks_per_replica : int
val total_blocks : cluster -> int
(** Coverage blocks are [blocks_per_replica] per replica: normal-path
    blocks (follower ack, leadership), recovery-path blocks (window
    entry/exit, stale-backup reload, blocked catch-up, mid-recovery
    kill, fault-in-window overlap, election-during-recovery), and the
    violation block — the graded signal the fitness search climbs. *)

val run : cluster -> faults:fault list -> run_result
(** Simulates the configured rounds with the given faults armed,
    stopping at the first invariant violation. Before its earliest fault
    a run repeats the baseline, so it starts from the last snapshot at or
    before that fault instead of from round 0; the result is the same.
    Pure and deterministic. Each run builds its own state and only reads
    the snapshots, so runs on several domains may share one cluster.
    @raise Invalid_argument on an out-of-range round, replica or peer. *)

val deep_invariants : string list
(** Invariants only a correlated multi-fault scenario can violate
    ([leader-uniqueness], [recovery-crash]). *)

val is_deep : violation -> bool
val pp_violation : Format.formatter -> violation -> unit
val pp_summary : Format.formatter -> cluster -> unit
