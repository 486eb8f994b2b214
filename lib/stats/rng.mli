(** Deterministic pseudo-random number generation.

    All stochastic behaviour in AFEX flows through this module so that every
    experiment is reproducible from a seed. The generator is splitmix64,
    which is fast, has a 64-bit state, and supports cheap splitting into
    statistically independent streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed]. Equal seeds yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val state : t -> int64
(** The raw 64-bit stream position. Together with {!of_state} this makes
    a generator checkpointable: a campaign snapshot stores the positions
    of its RNG streams and a resumed run continues them exactly where the
    interrupted one stopped. *)

val of_state : int64 -> t
(** [of_state s] is a generator whose next outputs equal those of any
    generator whose {!state} was [s]. Inverse of {!state}. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent from the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal deviate. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on [||]. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val shuffled_list : t -> 'a list -> 'a list
(** Functional shuffle of a list. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform permutation of [0 .. n-1]. *)
