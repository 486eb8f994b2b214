(** A fault space: a union of subspaces, as produced by the fault
    description language ([;]-separated subspace declarations, §6.2). *)

type t

val of_subspaces : Subspace.t list -> t
(** @raise Invalid_argument on the empty list. *)

val subspaces : t -> Subspace.t list
val single : t -> Subspace.t
(** The unique subspace. @raise Invalid_argument if the union has more
    than one member. *)

val cardinality : t -> int
(** Sum over subspaces, saturated at [max_int] like
    {!Subspace.cardinality}. *)

(** A located point: which subspace it belongs to, plus its coordinates. *)
type located = { subspace : int; point : Point.t }

val mem : t -> located -> bool

val enumerate : t -> located Seq.t

val random : Afex_stats.Rng.t -> t -> located
(** Subspace chosen with probability proportional to its cardinality, then
    a uniform valid point within it. *)

val values : t -> located -> (string * Value.t) list

val pp : Format.formatter -> t -> unit
