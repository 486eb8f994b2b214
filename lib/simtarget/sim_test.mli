(** One test of the target's test suite.

    A test pins down one execution path (modulo nondeterminism, §4): a
    deterministic sequence of callsite visits. The [Xtest] axis of every
    fault space in the paper's evaluation indexes these. *)

type t = {
  id : int;  (** position on the [Xtest] axis (0-based) *)
  name : string;
  group : string;
      (** functional grouping; consecutive tests of a group exercise
          similar paths, which is what makes the [Xtest] axis structured *)
  trace : int array;  (** callsite ids, in execution order *)
  duration_ms : float;  (** nominal wall-clock cost of executing the test *)
}

val make :
  id:int -> name:string -> group:string -> trace:int array -> duration_ms:float -> t

val run_end : int array -> int -> int
(** [run_end trace i] is the first position after [i] whose callsite
    differs from [trace.(i)], or the trace's length. Loop segments visit
    one callsite several times in a row, and every call of such a run
    reaches the same blocks, so walks step over a run at once.
    @raise Invalid_argument unless [i] is a position of [trace]. *)

val calls_to : t -> site_func:(int -> string) -> string -> int
(** Number of calls the test makes to the named libc function, given a
    mapping from callsite id to function name. *)

val nth_call : t -> site_func:(int -> string) -> string -> n:int -> (int * int) option
(** [nth_call t ~site_func f ~n] finds the [n]-th (1-based) call to [f]:
    returns [(trace_position, callsite_id)], or [None] if the test makes
    fewer than [n] calls to [f]. *)

val pp : Format.formatter -> t -> unit
