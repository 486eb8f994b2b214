(** The unified execution runtime: one [submit]/[poll] surface over
    every way AFEX can run a test. Three backends — inline (execute on
    the caller), local worker Domains sharing one FIFO of tasks, and the
    single-domain async event loop (local jobs and every remote manager)
    — sit behind one interface, so {!Pool} drives them without knowing
    which backend runs a task. A task is what the wire carries, a
    sequence number and a scenario; each backend receives the executor
    once, when it is created. Tests are independent and the explorer is
    the only producer, so an idle worker simply takes the oldest queued
    task: one slow scenario never idles the rest.

    {!submit} returns the result when the backend ran the task on the
    spot (the inline backend always does); the other backends answer
    through {!poll}, in completion order. Restoring submission order is
    the caller's job: {!Pool}'s window releases outcomes strictly in
    submission order, so the explored history is bit-identical to the
    sequential run at any parallelism. *)

(** {2 The runtime} *)

type t

val inline : (Afex_faultspace.Scenario.t -> Afex_injector.Outcome.t) -> t
(** [inline run]: each task runs through [run] synchronously at
    {!submit} on the calling domain — the [jobs = 1] degenerate case,
    and the determinism baseline every other backend must reproduce. *)

val domains :
  jobs:int -> (Afex_faultspace.Scenario.t -> Afex_injector.Outcome.t) -> t
(** The Domain backend: [jobs] local worker domains taking tasks from
    one FIFO, oldest first, each running [run] on the task's scenario.
    Which worker runs a task shifts placement, never the history.
    @raise Invalid_argument if [jobs < 1]. *)

val event_loop : Async_executor.t -> t
(** Wrap the single-domain async event loop, which holds its own
    executor: {!submit} enqueues on the loop, {!poll} runs it. Remote
    managers live here, as pipelined connections of the executor. The
    runtime owns the executor and closes it on {!shutdown}. *)

val submit :
  t ->
  seq:int ->
  Afex_faultspace.Scenario.t ->
  (Afex_injector.Outcome.t, exn) result option
(** Hand one task, a scenario under the caller's sequence number, to the
    backend. [Some result] when the backend ran the task on the spot —
    the inline backend always does, and never answers through {!poll}.
    [None] when the task was queued: its completion comes back from
    {!poll} with [seq] verbatim. Never blocks on a queued task's
    execution. *)

val poll : t -> block:bool -> (int * (Afex_injector.Outcome.t, exn) result) list
(** Completions since the last poll, in completion order (not submission
    order — that is the caller's job). [block = true] waits until at
    least one completion is available, so [[]] means no queued task is
    still without a polled completion: the caller needs no count of its
    own. [block = false] returns immediately after giving the backend a
    chance to make progress. *)

val async : t -> Async_executor.t option
(** The wrapped event loop, when the backend is one: remote counters
    are read from its {!Async_executor.stats} and
    {!Async_executor.remote_stats}. *)

val shutdown : t -> unit
(** Join worker domains / close remote connections. Outstanding tasks
    are still executed (domains drain the queue before exiting), but
    their completions are dropped. Idempotent. *)
