(** The unified execution runtime: one [submit]/[poll] surface over
    every way AFEX can run a test, plus the reorder buffer the
    barrierless pool is built from.

    The batch-barrier pool alternated generation and execution: the
    explorer generated a whole window, blocked until every slot came
    back, then merged, so the merge stall was a first-order cost at
    large windows. This module removes that barrier:

    - {!Reorder}: a submission-indexed reorder buffer. Completions
      arrive in whatever order workers finish; the buffer releases them
      to the explorer strictly in submission order, so the explored
      history, feedback weights and exports are bit-identical to the
      sequential run at any parallelism.
    - {!t}: the runtime handle. Three backends — inline (execute on the
      caller), local worker Domains sharing one FIFO of tasks, and the
      single-domain async event loop (local jobs and every remote
      manager) — behind one interface, so {!Pool} drives them without
      knowing which backend runs a task. A task is what the wire
      carries, a sequence number and a scenario; each backend receives
      the executor once, when it is created. Tests are independent and
      the explorer is the only producer, so an idle worker simply takes
      the oldest queued task: one slow scenario never idles the rest. *)

(** A submission-indexed reorder buffer: out-of-order [offer]s, strictly
    in-order release. Single-consumer; pure bookkeeping (no locks), so
    it property-tests in isolation. *)
module Reorder : sig
  type 'a t

  val create : ?next:int -> unit -> 'a t
  (** [next] (default 0) is the first sequence number to release. *)

  val offer : 'a t -> seq:int -> 'a -> unit
  (** Buffer the value for [seq]. Sequences may arrive in any order and
      with gaps; each is accepted exactly once.
      @raise Invalid_argument on a duplicate or already-released [seq]. *)

  val pop : 'a t -> 'a option
  (** The value at the release watermark, advancing it — or [None] while
      that sequence has not been offered (a head-of-line gap), no matter
      how many later sequences are buffered. *)

  val peek : 'a t -> 'a option
  (** {!pop} without advancing. *)

  val watermark : 'a t -> int
  (** The next sequence to release. Monotone: grows by exactly 1 per
      successful {!pop}. *)

  val buffered : 'a t -> int
  (** Offered-but-unreleased values (the out-of-order backlog). *)
end

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

val submit : t -> seq:int -> Afex_faultspace.Scenario.t -> unit
(** Hand one task, a scenario under the caller's sequence number, to the
    backend. Never blocks on execution (the inline backend runs the
    task, by definition). [seq] comes back verbatim in the completion. *)

val poll : t -> block:bool -> (int * (Afex_injector.Outcome.t, exn) result) list
(** Completions since the last poll, in completion order (not submission
    order — that is {!Reorder}'s job). [block = true] waits until at
    least one completion is available; returns [[]] only when nothing is
    outstanding. [block = false] returns immediately after giving the
    backend a chance to make progress. *)

val outstanding : t -> int
(** Submitted tasks whose completions have not been polled yet. *)

val async : t -> Async_executor.t option
(** The wrapped event loop, when the backend is one: remote counters
    are read from its {!Async_executor.stats} and
    {!Async_executor.remote_stats}. *)

val shutdown : t -> unit
(** Join worker domains / close remote connections. Outstanding tasks
    are still executed (domains drain the queue before exiting), but
    their completions are dropped. Idempotent. *)
