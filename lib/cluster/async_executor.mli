(** Single-domain event loop multiplexing many in-flight test executions.

    The Domain-based {!Pool} buys throughput with CPU parallelism — the
    right tool when each test {e computes} for its whole duration. But
    against a latency-bound target (a VM rebooting, a process crashed by
    fork/exec, a manager across a network) a worker domain spends its
    time {e waiting}, and burning a domain per in-flight test caps
    concurrency at the core count. This executor instead keeps up to
    [inflight] tests outstanding from one domain: each test is a
    nonblocking {!Afex.Executor.job}, completions are discovered by
    [Unix.select] over the jobs' fds and the remote connections' sockets,
    and the loop sleeps no longer than the earliest deadline it already
    holds: a started local job's next poll time, or a connection's
    oldest unanswered request plus the request timeout. Reconnect
    backoff never holds a test (a gated manager's test runs locally), so
    nothing ever sleeps while other work could progress (§7.7's
    dispatch-overhead model is the prediction this design chases;
    [bench async] measures the distance).

    The loop is driven incrementally: {!submit} enqueues a tagged
    scenario (dispatched eagerly, up to [inflight] concurrent), {!poll} runs the
    loop and returns whatever completed, in completion order. The
    {!Runtime} wraps this pair as its event-loop backend, and {!Pool}'s
    window restores submission order. The tag is the pool's sequence
    number and, for a remote test, the request's sequence number on the
    wire. A test in flight is held in one place: the loop's queue until
    it starts, then its local job or the manager connection it rides,
    which hands back every test it cannot answer for a local run. *)

type t

type stats = {
  local_runs : int;  (** jobs started on this domain (incl. fallbacks) *)
  remote_runs : int;  (** requests put on a manager's wire *)
  remote_fallbacks : int;
      (** tests that tried a remote path and re-ran locally: submit
          failures, requests a manager stranded, refused or answered
          unusably, straggler timeouts *)
  max_inflight : int;  (** high-water mark of concurrent tests *)
  wakeups : int;  (** event-loop iterations *)
}

val create :
  ?remotes:Remote_manager.spec list ->
  ?request_timeout_ms:int ->
  inflight:int ->
  Afex.Executor.async ->
  t
(** [create ~inflight exec]: a test that runs on this domain, because
    no manager took it or one failed it, starts through [exec], whose
    [async_total_blocks] also sizes the connections' reply decoders.
    [inflight] is fixed for the executor's lifetime. Each of the [m]
    remote connections gets a credit of [ceil (inflight / m)], so
    healthy managers always have room for the whole window, and with
    [inflight = m] each holds exactly one request: a slow manager
    cannot take a second one while a fast one idles.
    [request_timeout_ms] (default 10s) is the straggler bound per
    outstanding request: a manager that holds a test longer forfeits its
    connection and everything on it. The bound runs on
    {!Afex.Executor.monotonic_ms} from the moment the request was
    submitted, and replies to later requests do not extend it.
    @raise Invalid_argument if [inflight < 1] or the timeout is not
    positive. *)

val submit : t -> tag:int -> Afex_faultspace.Scenario.t -> unit
(** Enqueue one scenario under the caller's [tag] and dispatch eagerly if
    the in-flight window has room (remotes preferred — round-robin over
    dispatchable connections, backoff gates respected — with local
    fallback on any remote failure). The tag, non-negative and not
    outstanding already, comes back from {!poll}. *)

val poll : t -> block:bool -> (int * (Afex_injector.Outcome.t, exn) result) list
(** Run the event loop and return the completions it produced, oldest
    first, in completion order. With [block = true] the loop runs until
    at least one completion is available (immediately returning anything
    already queued); [[]] means nothing was outstanding. With
    [block = false] the loop gets one zero-timeout iteration. Exceptions
    raised by a job are captured per-tag, not thrown. *)

val stats : t -> stats
(** Cumulative across batches. *)

val remote_stats : t -> (string * Remote_manager.stats) list
(** Per-manager wire counters ([retries] counts connection-level
    failures). *)

val close : t -> unit
(** Closes every remote connection (best-effort [Shutdown]). The
    executor stays usable for local-only batches. *)
