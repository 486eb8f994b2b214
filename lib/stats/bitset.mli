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
(** [set_run t first last] sets bits [first] to [last], both included,
    a byte at a time.
    @raise Invalid_argument unless [0 <= first <= last < capacity t]. *)

val runs : t -> int
(** The number of maximal runs of set bits. *)

val fold_runs : ('c -> 'a -> int -> int -> 'a) -> 'c -> 'a -> t -> 'a
(** [fold_runs f c acc t] folds [f c acc first last] over the maximal
    runs of set bits, in ascending order. The scan takes its run
    boundaries from each 32-bit word's transition mask and steps over
    words without one. It allocates nothing itself, so a toplevel [f]
    that keeps its state in [c] and an immediate [acc] folds without
    allocating. *)

val equal : t -> t -> bool

val hash : t -> int
(** Mixes every byte of the set; equal sets hash alike. Allocates
    nothing. *)
