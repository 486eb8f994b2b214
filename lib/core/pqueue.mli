(** Q_priority: the bounded pool of executed high-fitness tests.

    Parents are sampled with probability proportional to fitness (line 4 of
    Algorithm 1). When the size limit is hit, a victim is sampled with
    probability {e inversely} proportional to fitness, so average fitness
    rises over time. Aging decays fitness each round and retires tests
    below a threshold; retired tests "can never have offspring" (§3).

    The queue owns the fitness of the tests it holds. It takes a test's
    [fitness] field on {!insert} and keeps the value in a column of its
    own, which aging decays. The record's field is written back when the
    test leaves the queue (the victim {!insert} returns, the tests
    {!age} retires) and when the queue is read ({!elements}, {!settle},
    {!settle_newest}); until then a queued record's field holds the value
    of its last write. *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument if [capacity < 1]. *)

val load : capacity:int -> Test_case.t list -> (t, string) result
(** Rebuild a queue from {!elements} output (same order, same sharing):
    snapshot restore hands back the exact test-case records, and each
    one's [fitness] field seeds the queue's. [Error] when the entries
    overflow [capacity]. *)

val size : t -> int
val is_empty : t -> bool
val capacity : t -> int

type eviction = Inverse_fitness | Drop_min

val insert :
  ?policy:eviction -> Afex_stats.Rng.t -> t -> Test_case.t -> Test_case.t option
(** Adds a test; if the queue was full, returns the evicted victim, its
    [fitness] field current. The default [Inverse_fitness] policy samples
    the victim with probability inversely proportional to fitness (the
    paper's rule); [Drop_min] deterministically evicts the lowest-fitness
    entry (ablation). *)

val sample : Afex_stats.Rng.t -> t -> Test_case.t option
(** Fitness-proportional parent choice; [None] when empty. Tests with
    non-positive fitness are still sampleable with small probability.
    The parent stays queued, so its [fitness] field may be stale. *)

val age : t -> decay:float -> retire_below:float -> Test_case.t list
(** Multiplies every fitness by [decay] and removes (returning) tests
    whose fitness dropped below [retire_below], their [fitness] fields
    current. *)

val settle : t -> unit
(** Writes every queued test's fitness into its record. *)

val settle_newest : t -> unit
(** Writes the newest queued test's fitness into its record (after an
    {!insert} that nothing retired since, the inserted test's); nothing
    when the queue is empty. *)

val mean_fitness : t -> float

val elements : t -> Test_case.t list
(** Newest first, each [fitness] field current ({!settle}). *)
