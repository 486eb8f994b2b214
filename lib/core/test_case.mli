(** An executed fault-injection test, as tracked by the explorer. *)

type t = {
  point : Afex_faultspace.Point.t;  (** coordinates in the search subspace *)
  fault : Afex_injector.Fault.t;
  status : Afex_injector.Outcome.status;
  triggered : bool;
  impact : float;  (** measured impact I_S(φ) *)
  mutable fitness : float;
      (** starts equal to the (feedback/relevance-weighted) impact, then
          decays with age (§3, "aging"). While the test is queued,
          {!Pqueue} owns its fitness and writes this field back only when
          the test leaves the queue or the queue is read, so a queued
          record's field can lag behind; every record {!Explorer} hands
          out ({!Explorer.report}, {!Explorer.records},
          {!Explorer.queue_snapshot}, {!Explorer.Snapshot.capture}) is
          current when handed out. *)
  birth : int;  (** iteration at which the test was executed *)
  mutated_axis : int option;
      (** which attribute was mutated to produce this test; [None] for the
          random initial batch *)
  injection_stack : string list option;
  crash_stack : string list option;
  new_blocks : int;
  duration_ms : float;
}

val failed : t -> bool
val crashed : t -> bool

val pp : Format.formatter -> t -> unit
