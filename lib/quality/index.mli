(** Incremental redundancy clustering.

    The batch {!Clustering.cluster} pass is quadratic in distinct traces
    and rebuilt from scratch on every call; this index maintains the same
    single-linkage partition {e online}. Each observed trace is interned
    ({!Trace_intern}), deduplicated by int-array equality, and — only when
    genuinely new — linked against older distinct traces through a bag
    lower-bound filter and the k-bounded kernel
    {!Levenshtein.distance_at_most}, with k capped at the threshold budget
    so far-apart pairs exit early. Cluster count and distinct count are
    O(1) reads; the partition always equals what the batch pass would
    compute over the same traces (property-tested). Observation order is
    the only input, so any driver that merges outcomes in submission order
    (the Domain pool, remote dispatch, the async event loop) reproduces
    the sequential index state bit-for-bit. *)

type t

val create : ?threshold:float -> intern:Trace_intern.t -> unit -> t
(** [threshold] is the normalized distance bound of {!Clustering.cluster}
    (default 0.34). [intern] may be shared with other indexes and the
    {!Feedback} store of the same session. *)

val observe : t -> string list -> unit
(** Add one trace and fold it into the partition. Exact repeats cost one
    hash lookup. *)

val threshold : t -> float

val length : t -> int
(** Traces observed, duplicates included. *)

val distinct : t -> int
(** Exactly-distinct traces (the "unique failures" metric of Table 5). *)

val cluster_count : t -> int

val clusters : t -> int list list
(** Members of each cluster as item indices (observation order,
    [0 .. length - 1]), each list ascending; clusters largest first, ties
    by earliest first member. The head of each list is the
    representative, matching {!Clustering.cluster}. *)

val representatives : t -> int list
(** First-observed member of each cluster, in {!clusters} order. *)

(** {2 Snapshots}

    The index's distinct traces and their partition, relative to a
    shared intern table: distinct traces in id order and the raw
    union-find vector. Re-observing would re-run the quadratic linkage;
    loading the dump is linear and restores the partition bit-for-bit.
    The observation order is not in the dump: whoever observed the
    traces keeps them, and hands them to {!replay} after {!load}. *)

type dump = {
  d_entries : int array list;  (** distinct traces, id order *)
  d_parent : int list;  (** union-find parent of each distinct id *)
}

val dump : t -> dump

val load :
  ?threshold:float -> intern:Trace_intern.t -> dump -> (t, string) result
(** Inverse of {!dump} against the same (restored) intern table, with no
    observation yet ([length] 0). [Error] — never an exception — on
    token ids outside the table, duplicate traces, non-min-rooted
    parents or mismatched vector lengths, so corrupt snapshots are
    rejected cleanly. *)

val replay : t -> string list -> unit
(** Append one observation of a trace the index already holds, as
    {!observe} would: a lookup that interns no frame and adds no
    distinct trace. Raises [Not_found] if the trace is not one of the
    index's distinct traces. *)

val unobserved : t -> int
(** Distinct traces that no observation names: 0 in an index built by
    {!observe}, and in a loaded one once every observation is
    replayed. *)
