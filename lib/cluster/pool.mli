(** Multicore and distributed execution backend: the explorer-facing
    session loop over the {!Runtime} — worker domains sharing one task
    queue for local tests, one event loop for remote managers and
    latency-bound targets (§6.1, §7.7 — the architecture {!Simulation}
    only models).

    The explorer thread keeps a sliding window of up to [batch_size]
    candidates in flight: it submits to the runtime while the window has
    room and otherwise merges the oldest outstanding outcome. The window
    is one table from sequence number to submission, filled in place as
    outcomes arrive and released strictly in submission order. There
    is no batch barrier — generation overlaps execution, and one slow
    test delays only its own release, not a whole batch. Because
    generation and merging both happen sequentially on the explorer
    thread under a schedule that is a pure function of the seed, the
    window size and the iteration count, the explored-point history
    {e never} depends on [jobs], [inflight], completion order or how the
    OS schedules domains. A campaign is therefore replayable at any
    parallelism.

    Deterministic executors additionally get a point-keyed outcome
    cache: a repeated candidate (common late in a beam search, and under
    random search on small spaces) is served from the cache without
    occupying a worker. Cache lookups happen on the explorer thread in
    submission order, so hit counts are deterministic too. For each
    executed point the cache keeps the record {!Afex.Explorer.report}
    returned, which the explorer keeps anyway, and its coverage, one
    copy per distinct set of the session; a hit's outcome is rebuilt
    from them, equal field for field to the first run's. A session
    explores one subspace, so a point names one scenario; a [transform]
    applies after the lookup, and one that maps two points to one
    scenario runs that deterministic scenario twice. *)

type executor =
  | Pure of Afex.Executor.t
      (** Deterministic executor: outcome is a function of the scenario
          alone. Eligible for memoization. *)
  | Async of Afex.Executor.async
      (** Latency-bound executor with a nonblocking start/poll split
          (e.g. a simulated slow target, or a wrapped fork/exec'd
          process): the pool multiplexes up to [inflight] of these from a
          single-domain event loop ({!Async_executor}) instead of
          burning a worker domain per in-flight test. Deterministic by
          contract — the outcome must be a function of the scenario
          alone — and therefore memoized like [Pure]. *)

type t
(** A running pool: a {!Runtime} handle — [jobs] local worker domains
    sharing one task queue, or one event loop that multiplexes
    remote managers and in-flight tests. With [jobs = 1], [inflight = 1]
    and no remotes, no domain is spawned and tasks run inline on the
    caller. *)

val create :
  ?remotes:Remote_manager.spec list ->
  ?inflight:int ->
  ?request_timeout_ms:int ->
  jobs:int ->
  executor ->
  t
(** Without remotes, [inflight = 1] and a [Pure] executor, spawns
    [jobs] worker domains, each running the executor's [run_scenario].
    The explorer pushes onto one FIFO they share, and an idle worker
    takes the oldest task, so one slow scenario never idles the rest of
    the fleet.

    Otherwise the pool runs single-domain event-loop mode
    ({!Async_executor}): [remotes <> []], [inflight > 1] or an [Async]
    executor switches to it. Up to [max inflight (List.length remotes)]
    tests are kept concurrently in flight, each manager holding at most
    its rounded-up share, so the default [inflight] of 1 keeps exactly
    one request per manager outstanding. Each remote spec is a
    pipelined connection on the loop, dialed lazily on first use; a
    manager that fails (dead, exhausted retries, byzantine replies, or
    holding a request past [request_timeout_ms]) has its tests re-run
    locally on the loop, a [Pure] executor through
    {!Afex.Executor.async_of_sync} — so remotes affect throughput, never
    the explored-point history. The explored-point history is identical
    at every [inflight] value and every remote mix (and to the Domain
    path at equal [batch_size]): results merge in submission order
    regardless of completion order.
    @raise Invalid_argument if [jobs < 0], [jobs = 0] with no remotes,
    [inflight < 1], or event-loop mode is combined with [jobs > 1]. *)

val jobs : t -> int

val async_stats : t -> Async_executor.stats option
(** Event-loop counters, when in event-loop mode. *)

val remote_stats : t -> (string * Remote_manager.stats) list
(** One [(name, stats)] per remote manager, in [create] order. Read it
    before {!shutdown}: a closed connection's dictionary reads 0. *)

val shutdown : t -> unit
(** Joins all worker domains / closes every remote connection.
    Idempotent. *)

type stats = {
  executed : int;  (** scenarios actually run on a worker *)
  cache_hits : int;  (** outcomes served from the memo cache *)
  remote_runs : int;  (** scenarios whose outcome came over the wire *)
  remote_fallbacks : int;
      (** remote attempts that failed and were re-run locally *)
  gen_ms : float;
      (** explorer-thread time spent generating candidates and deciding
          how each is satisfied (memo lookup, submission) *)
  stall_ms : float;
      (** explorer-thread time spent blocked on the head of line: the
          oldest outstanding outcome had not completed yet *)
  merge_ms : float;
      (** explorer-thread time spent releasing outcomes: journaling,
          caching and {!Afex.Explorer.report} *)
  wall_ms : float;
      (** real elapsed time of the session loop; at least the sum of the
          three phases *)
}

val session :
  ?transform:(Afex_faultspace.Point.t -> Afex_faultspace.Point.t) ->
  ?stop:Afex.Session.stop ->
  ?checkpoint:Checkpoint.t ->
  ?batch_size:int ->
  ?memoize:bool ->
  ?sync_every:int ->
  iterations:int ->
  t ->
  Afex.Config.t ->
  Afex_faultspace.Subspace.t ->
  Afex.Session.result * stats
(** Parallel counterpart of {!Afex.Session.run} on an existing pool.

    [batch_size] (default 32) is the in-flight window: the explorer
    submits a candidate whenever fewer than that many are outstanding,
    and otherwise merges the oldest outstanding outcome — generation
    overlaps execution, with no barrier between them. [stop] targets
    are checked at submission time against the merged prefix (plus
    per-case during the merge for [stop_iteration]), so they too are
    [jobs]-independent. With [batch_size = 1] the schedule
    degenerates to exactly {!Afex.Session.run}'s candidate stream.

    [memoize] (default [true]) enables the outcome cache.

    [sync_every] (default 512) spaces the schedule's quiescent sync
    watermarks: submissions never cross a multiple of [sync_every] until
    everything before it has merged, draining the window there. The
    drain is part of the schedule whether or not a checkpoint is armed —
    it is where cadence snapshots are written — so the explored history
    is a function of (seed, [batch_size], [sync_every], iterations) and
    nothing else. No wall-clock measurement feeds back into the
    schedule: the phase timings in {!stats} are reported, never read.

    [checkpoint] arms crash-safe campaign persistence: a fresh
    {!Checkpoint.start} handle writes a base snapshot before any work,
    journals every outcome before the explorer absorbs it, and snapshots
    at the handle's cadence on the next sync watermark (where nothing is
    in flight). The journal commits in groups: the release of an outcome
    it lacks also stages every later outcome of the window already known
    (run, or served by the memo cache), up to the first still waiting, a
    duplicate of a point in flight or an error, and one write carries
    them all. So the journal runs at most one window ahead of the
    explorer, stays contiguous, and is empty of unabsorbed outcomes at
    every watermark. A {!Checkpoint.resume} handle first restores the
    snapshot, then replays the journaled outcomes — applied without
    re-execution or journaling, flowing through the same sliding-window
    schedule — before generating new work. Because the explorer is deterministic, the resulting
    history (and every export derived from it) is byte-for-byte the
    history the uninterrupted run would have produced.
    @raise Invalid_argument when combined with [stop] (a predicate
    cannot be captured in a snapshot); @raise Failure when the snapshot
    or journal contradicts the regenerated campaign. *)

val run :
  ?transform:(Afex_faultspace.Point.t -> Afex_faultspace.Point.t) ->
  ?stop:Afex.Session.stop ->
  ?checkpoint:Checkpoint.t ->
  ?batch_size:int ->
  ?memoize:bool ->
  ?sync_every:int ->
  ?remotes:Remote_manager.spec list ->
  ?inflight:int ->
  ?request_timeout_ms:int ->
  jobs:int ->
  iterations:int ->
  Afex.Config.t ->
  Afex_faultspace.Subspace.t ->
  executor ->
  Afex.Session.result * stats
(** [create], {!session}, [shutdown] — the one-shot convenience. *)
