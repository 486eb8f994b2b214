(** Fixed-capacity bitsets, used for basic-block coverage accounting. *)

type t

val create : int -> t
(** All bits clear. Capacity is fixed. *)

val capacity : t -> int
val copy : t -> t

val set : t -> int -> unit
(** @raise Invalid_argument if out of range. *)

val mem : t -> int -> bool
val count : t -> int

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] ors [src] into [dst]. Capacities must match. *)

val diff_count : t -> t -> int
(** [diff_count a b] is the number of bits set in [a] but not in [b]. *)

val iter : (int -> unit) -> t -> unit

val extend : t -> int -> t
(** [extend t n] is a fresh bitset of capacity [n] holding [t]'s bits.
    @raise Invalid_argument if [n < capacity t]. *)

val set_run : t -> int -> int -> unit
(** [set_run t first last] sets bits [first] to [last], both included.
    @raise Invalid_argument unless [0 <= first <= last < capacity t]. *)

val fold_runs : ('a -> int -> int -> 'a) -> 'a -> t -> 'a
(** [fold_runs f acc t] folds [f acc first last] over the maximal runs
    of set bits, in ascending order. Allocates nothing itself. *)

val equal : t -> t -> bool
