(** A hyperrectangular fault subspace: the Cartesian product of its axes,
    minus holes (invalid attribute combinations, §2). *)

type t

val make : ?label:string -> ?hole:(Point.t -> bool) -> Axis.t list -> t
(** [make axes] builds the product space. [hole p] returning [true] marks
    [p] as an invalid fault that must never be generated or counted. A
    subspace made without [~hole] is {e hole-free} ({!hole_free}), even
    though [~hole:(fun _ -> false)] excludes the same points: only a
    hole-free subspace knows, without asking a predicate, that every
    point in bounds is valid.
    @raise Invalid_argument on an empty axis list. *)

val label : t -> string option
val axes : t -> Axis.t array
val dim : t -> int
val axis : t -> int -> Axis.t

val axis_index : t -> string -> int option
(** Position of the axis with the given name. *)

val cardinality : t -> int
(** Product of axis cardinalities, {e including} holes (holes are defined
    by predicate, so they are excluded during enumeration/sampling, not
    counted here). Saturates: a product above [max_int] is [max_int], so
    a huge compound space never reads as small or negative. *)

val hole_free : t -> bool
(** [true] iff the subspace was made without [~hole]. Every in-bounds
    point is then valid, so a set of {!cardinality} distinct in-bounds
    points is the whole subspace. *)

val in_bounds : t -> Point.t -> bool
val mem : t -> Point.t -> bool
(** In bounds and not a hole. *)

val values : t -> Point.t -> (string * Value.t) list
(** Attribute names paired with the point's concrete values. *)

val value : t -> Point.t -> int -> Value.t
val point_of_values : t -> (string * Value.t) list -> Point.t option
(** Inverse of {!values}; [None] if any name or value is unknown. *)

val enumerate : t -> Point.t Seq.t
(** All valid points in lexicographic order of indices, holes skipped. *)

val random_point : Afex_stats.Rng.t -> t -> Point.t
(** Uniform valid point (rejection sampling over holes; gives up and raises
    [Failure] if the space appears to be all holes). On a hole-free
    subspace this is exactly one [Rng.int] call per axis, in axis
    order. *)

val skip_random_points : Afex_stats.Rng.t -> t -> int -> unit
(** [skip_random_points rng t n] leaves [rng] exactly where [n] calls of
    [random_point rng t] would, by making the same [Rng.int] calls and
    building no point. A search that knows its draws would all be
    rejected can skip them without changing anything drawn afterwards.
    [n <= 0] draws nothing.
    @raise Invalid_argument unless {!hole_free} [t]: with holes, the
    number of draws per point depends on the predicate. *)

val vicinity : t -> Point.t -> d:int -> Point.t Seq.t
(** All valid points at Manhattan distance <= [d] from the given point,
    the point itself included. *)

val pp : Format.formatter -> t -> unit
