(** A fault as a vector of attribute indices (§2).

    A point identifies one fault in a subspace: component [i] is the index
    of the fault's value on axis [Xi]. Distance between faults is the
    Manhattan (city-block) distance, i.e. the smallest number of single-step
    attribute increments/decrements turning one fault into the other. *)

type t = private int array

val of_array : int array -> t
(** Takes ownership of a copy. Components must be non-negative. *)

val init : int -> (int -> int) -> t
(** [init n f] is the point [f 0, ..., f (n-1)], built in place.
    Components must be non-negative. *)

val of_list : int list -> t
val to_array : t -> int array
val to_list : t -> int list

val dim : t -> int
val get : t -> int -> int

val with_component : t -> int -> int -> t
(** [with_component p i v] is a copy of [p] whose [i]-th component is [v]
    (the clone-and-mutate step of Algorithm 1, lines 10-11). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Mixes every component; allocates nothing, like {!equal}. *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed by the point itself: the search's identity sets (history,
    pending candidates, stop-target matches) probe these without building
    a {!key} string. *)

val manhattan : t -> t -> int
(** City-block distance. @raise Invalid_argument on dimension mismatch. *)

val chebyshev : t -> t -> int
(** Max per-axis distance; useful for box vicinities. *)

val key : t -> string
(** Injective compact encoding, for the edges where a point leaves the
    process: journal, exports, wire and seeding. In memory, use {!Tbl}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
