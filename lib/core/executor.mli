(** What the explorer needs from the machinery that actually runs tests:
    a way to execute one fault scenario and the size of the coverage
    domain.

    Execution is keyed on {e scenarios} (attribute bindings in the Fig. 5
    wire format), not on any concrete fault type: the explorer stays
    tool-independent (§3, "Alternative Algorithms") and the same search
    code drives single-fault injectors, multi-fault injectors, or anything
    a plugin can decode. *)

type t = {
  run_scenario : Afex_faultspace.Scenario.t -> Afex_injector.Outcome.t;
  total_blocks : int;
  description : string;
}

val of_target :
  ?nondet:Afex_injector.Engine.nondeterminism -> Afex_simtarget.Target.t -> t
(** Single-fault execution: scenarios must carry [testId], [function] and
    [callNumber] (plus optional [errno]/[retval]).
    @raise Invalid_argument at run time on an undecodable scenario. *)

val of_target_multi :
  ?nondet:Afex_injector.Engine.nondeterminism -> Afex_simtarget.Target.t -> t
(** Multi-fault execution: scenarios in the {!Afex_injector.Multifault}
    encoding (one [testId], then repeated [function]/[callNumber]
    groups). *)

val of_fn :
  total_blocks:int ->
  description:string ->
  (Afex_injector.Fault.t -> Afex_injector.Outcome.t) ->
  t
(** Wrap a single-fault runner (used by tests and synthetic spaces). *)

val of_scenario_fn :
  total_blocks:int ->
  description:string ->
  (Afex_faultspace.Scenario.t -> Afex_injector.Outcome.t) ->
  t

(** {2 Nonblocking execution}

    For latency-bound targets (a real system under test, a remote
    manager) the interesting resource is {e in-flight tests}, not CPU: a
    worker that blocks for the duration of one test wastes its wall-clock
    on waiting. The nonblocking split separates {e starting} a test from
    {e collecting} its outcome so a single-domain event loop (see
    [Afex_cluster.Async_executor]) can keep many injections in flight. *)

type job = {
  poll : unit -> Afex_injector.Outcome.t option;
      (** [None] while the test is still running; [Some o] exactly once it
          completes (and on every later poll). Must never block. *)
  wait_fd : Unix.file_descr option;
      (** When the job is backed by an OS resource (a pipe from a forked
          target, a socket), the fd whose readability means "worth polling
          again"; event loops put it in their [select] set. *)
  ready_at_ms : unit -> float option;
      (** Earliest {!monotonic_ms} instant at which [poll] can succeed:
          the event loop polls the job again then, and sleeps no longer
          than the earliest such instant. [None] = no estimate (the loop falls
          back to fd readiness or periodic polling). *)
}
(** One in-flight scenario execution. *)

type async = {
  start : Afex_faultspace.Scenario.t -> job;
      (** Begin executing; must not wait for completion. *)
  async_total_blocks : int;
  async_description : string;
}
(** A nonblocking executor: the start/poll counterpart of {!t}. *)

val monotonic_ms : unit -> float
(** Milliseconds on a process-local clock starting near zero — the time
    base for {!job.ready_at_ms}, the async executor's poll times and
    request timeouts, and the send times a pipelined remote connection
    records for its requests. *)

val job_done : Afex_injector.Outcome.t -> job
(** A job that is already complete (used by synchronous executors). *)

val async_of_sync : t -> async
(** Wrap a synchronous executor: [start] runs the scenario to completion
    on the calling domain, so concurrency degenerates gracefully to the
    blocking behaviour. History-equivalent to the original executor. *)

val run_job_blocking :
  ?poll_interval_ms:float -> ?now_ms:(unit -> float) -> job -> Afex_injector.Outcome.t
(** Wait for one job: sleeps until [ready_at_ms] (or polls every
    [poll_interval_ms], default 0.2) and returns the outcome. *)

val sync_of_async :
  ?poll_interval_ms:float -> ?now_ms:(unit -> float) -> async -> t
(** The blocking view of a nonblocking executor: each run costs the
    job's full latency on the calling domain. This is the "blocking
    worker" baseline the async bench compares against. *)

val delayed :
  ?now_ms:(unit -> float) ->
  delay_ms:(Afex_faultspace.Scenario.t -> float) ->
  t ->
  async
(** [delayed ~delay_ms t] makes a latency-bound target out of a fast
    deterministic one: the outcome is computed immediately but the job
    only completes [delay_ms scenario] later. With a deterministic
    [delay_ms] (see [Afex_simtarget.Target.latency_ms]) the executor
    stays replayable; the blocking view ({!sync_of_async}) really sleeps,
    the async executor overlaps the waits. *)
