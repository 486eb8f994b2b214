(** Discrete probability distributions used by the AFEX search.

    The paper's Algorithm 1 needs two sampling primitives: fitness- or
    sensitivity-proportional choice over a finite set (lines 1-6), and a
    discrete approximation of a Gaussian centred on the current attribute
    value (lines 8-9). Both are provided here over index domains
    [0 .. n-1].

    {b Sampler contract.} {!of_weights} + {!sample} (and
    {!discrete_gaussian} for the Gaussian) materialize the distribution
    and are the reference. The search's hot path uses samplers that
    never build it: {!sample_weighted} scans the weights in place, and
    {!sample_gaussian_excluding} scans a cached {!gaussian} kernel. Each
    returns the same index as the reference, draws the same random
    numbers from the {!Rng.t} (so it leaves it in the same state), and
    raises the same exceptions, for every input (a Gaussian centre must
    lie in the domain: the mutated value is a component of a point in
    the subspace). They sum the same
    normalized weights in the same order, so every cumulative value is
    the same float. *)

type weighted
(** A normalized discrete distribution over indices [0 .. n-1]. *)

val of_weights : float array -> weighted
(** [of_weights w] builds a distribution proportional to [w]. Negative
    weights raise [Invalid_argument]. If every weight is zero the
    distribution is uniform. *)

val weights : weighted -> float array
(** Normalized probabilities (sums to 1 up to rounding). *)

val support : weighted -> int
(** Number of indices. *)

val sample : Rng.t -> weighted -> int
(** Draw an index with its assigned probability. *)

val sample_weighted : Rng.t -> float array -> int
(** [sample rng (of_weights w)] without building the distribution: one
    pass to validate and total the weights, one scan to draw. Allocates
    nothing beyond the random draw. *)

val sample_weighted_prefix : Rng.t -> float array -> len:int -> int
(** {!sample_weighted} over the first [len] weights, for callers that
    keep a reusable scratch array.
    @raise Invalid_argument unless [0 < len <= Array.length w]. *)

val uniform : int -> weighted
(** Uniform distribution over [0 .. n-1]. *)

val discrete_gaussian : center:int -> sigma:float -> n:int -> weighted
(** [discrete_gaussian ~center ~sigma ~n] is the Gaussian density evaluated
    at integers [0 .. n-1], centred at [center], truncated to the domain and
    renormalized. With [sigma <= 0] all mass is on [center]. This is the
    mutation-magnitude distribution of Algorithm 1, line 9. *)

val sample_gaussian_index :
  Rng.t -> center:int -> sigma:float -> n:int -> int
(** Draw from {!discrete_gaussian}. *)

type gaussian
(** The {!discrete_gaussian} kernel for a fixed [sigma] and domain size
    [n], reusable across centres: the weight at each distance (computed
    once, [n] floats) and, filled lazily, the total weight around each
    centre ([n] floats). *)

val gaussian : sigma:float -> n:int -> gaussian
(** @raise Invalid_argument as {!discrete_gaussian} does: on [n <= 0] or
    a NaN [sigma]. *)

val sample_gaussian_excluding : Rng.t -> gaussian -> center:int -> int
(** [sample_gaussian_excluding rng (gaussian ~sigma ~n) ~center] draws
    from [discrete_gaussian ~center ~sigma ~n] but never returns [center]
    (a mutation must change the attribute): it redraws while the draw hits
    [center], and after 66 such draws picks a uniform neighbour instead.
    Weights are read from the kernel, so a draw makes no [exp] call and
    allocates nothing once the centre's total is known.
    @raise Invalid_argument if [n < 2] or [center] is outside
    [0 .. n-1]. *)

val inverse : float array -> float array
(** [inverse w] maps each weight to a weight inversely proportional to it
    (used for dropping low-fitness tests from the priority queue: the paper
    drops with probability inversely proportional to fitness). Zero weights
    receive the largest inverse weight in the result. *)
