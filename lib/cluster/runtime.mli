(** The unified execution runtime: one [submit]/[poll] surface over
    every way AFEX can run a test, plus the two data structures the
    barrierless pool is built from.

    The batch-barrier pool alternated generation and execution: the
    explorer generated a whole window, blocked until every slot came
    back, then merged, so the merge stall was a first-order cost at
    large windows. This module removes that barrier:

    - {!Deque}: a Chase–Lev-style work-stealing deque per worker. The
      explorer (the single producer) pushes tasks round-robin; a worker
      whose own deque runs dry steals from a random victim, so load
      imbalance — one slow scenario, one stolen worker — never idles the
      rest of the fleet.
    - {!Reorder}: a submission-indexed reorder buffer. Completions
      arrive in whatever order workers finish; the buffer releases them
      to the explorer strictly in submission order, so the explored
      history, feedback weights and exports are bit-identical to the
      sequential run at any parallelism.
    - {!t}: the runtime handle. Three backends — inline (execute on the
      caller), work-stealing Domains (local workers only), and the
      single-domain async event loop (local jobs and every remote
      manager) — behind one interface, so {!Pool} drives them without
      knowing which backend runs a task. *)

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

(** A Chase–Lev-style work-stealing deque, adapted to AFEX's shape: the
    {e explorer} is the single owner ([push]/[pop] at the bottom), and
    every worker — including the deque's nominal owner-worker — takes
    from the top with a CAS {!steal}. Tasks never spawn subtasks, so the
    only contended operation is steal/steal, resolved by the CAS on
    [top]; push and pop stay fence-free single-owner operations. *)
module Deque : sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  (** Initial ring capacity (default 64); the owner grows it on demand,
      never blocking thieves.
      @raise Invalid_argument if [capacity < 1]. *)

  val push : 'a t -> 'a -> unit
  (** Owner only: append at the bottom. *)

  val pop : 'a t -> 'a option
  (** Owner only: take back the most recently pushed element (LIFO end),
      racing thieves for the last one. *)

  val steal : 'a t -> 'a option
  (** Any domain: take the oldest element (FIFO end). Lock-free; [None]
      when empty or when a race was lost and the deque drained. *)

  val length : 'a t -> int
  (** A snapshot; exact only when quiescent. *)
end

(** {2 The runtime} *)

type task = {
  seq : int;  (** submission index; comes back with the completion *)
  scenario : Afex_faultspace.Scenario.t option;
      (** what the event loop ships to a remote manager; [None] pins the
          task local (seeded executors, whose RNG closure cannot
          travel) *)
  run : unit -> Afex_injector.Outcome.t;
      (** the synchronous form: Domain workers and the inline backend *)
  start : unit -> Afex.Executor.job;
      (** the nonblocking form the event loop multiplexes *)
}

type t

val inline : unit -> t
(** Tasks execute synchronously at {!submit} on the calling domain — the
    [jobs = 1] degenerate case, and the determinism baseline every other
    backend must reproduce. *)

val domains : ?steal_seed:int -> jobs:int -> unit -> t
(** The work-stealing backend: [jobs] local worker domains, each owning
    a deque the explorer feeds round-robin. A dry worker steals from a
    random victim ([steal_seed] seeds the per-worker victim streams —
    placement only, never the history).
    @raise Invalid_argument if [jobs < 1]. *)

val event_loop : Async_executor.t -> t
(** Wrap the single-domain async event loop: {!submit} enqueues on the
    loop, {!poll} runs it. Remote managers live here, as pipelined
    connections of the executor. The runtime owns the executor and
    closes it on {!shutdown}. *)

val submit : t -> task -> unit
(** Hand one task to the backend. Never blocks on execution (the inline
    backend runs the task, by definition). Sequence numbers are the
    caller's; they come back verbatim in completions. *)

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
    are still executed (domains drain their deques before exiting), but
    their completions are dropped. Idempotent. *)
