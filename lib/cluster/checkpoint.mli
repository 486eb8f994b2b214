(** Crash-safe campaign checkpoints: periodic snapshots, an append-only
    log of final records, and a write-ahead journal of reported
    outcomes.

    All three files are built from {!Message}'s binary field codecs,
    the ones the wire uses. A checkpoint directory holds:

    - [records.log] — the records that can no longer change, in birth
      order, one framed record each. Aging is the only thing that
      changes a record (its fitness), only queued records age, and no
      record re-enters the queue, so every record older than the oldest
      queued one is final. The highest such birth is the {e frontier}:
      the oldest queued birth minus one, or every record when the queue
      is empty (the random and exhaustive strategies never queue). Each
      snapshot appends the records between the old and the new frontier
      in one write, so a snapshot costs what happened since the last
      one, not the whole history.
    - [snapshot.afex] — the rest of the explorer state at a
      quiescent sync watermark of the window (released = submitted): the
      records above the frontier, plus a {e mark} naming how many
      records and bytes of [records.log] it vouches for. Written
      atomically (temp file + [rename]): an [afex-checkpoint 9] header
      line, one fixed-order sequence of fields, and a checksum of
      everything before it. Each redundancy index goes in as its
      distinct traces and their partition, not as the order in which
      tests observed them: that order is the records' own, and
      {!Afex.Explorer.restore} rebuilds it from them.
    - [wal.log] — one framed record per journaled outcome since the
      last snapshot, written {e before} the search absorbs it: the
      candidate's point, then the outcome as one
      {!Message.V2.encode_reply} record with fresh codec state, so every
      record decodes on its own. The pool journals in groups: when it
      releases an outcome the journal lacks, it {!stage}s that outcome
      and every later one of the window already known, then {!flush}es
      them in one [write]. So the journal is strictly ascending and
      contiguous in the absolute iteration each record carries, and may
      run up to one window ahead of what the search has absorbed; no
      batch framing is needed. Replayed outcomes are never journaled
      again, and snapshots, which truncate the journal, are taken only
      at quiescent watermarks, when every journaled outcome has been
      absorbed.

    The record log and the snapshot share one record codec. The journal
    and the record log share one framing: the payload's length, a
    checksum of that length and a checksum of the payload. Only a record
    cut off by the end of the file, or a bad final journal record,
    counts as a crash's torn tail; any other damage, a damaged length
    included, is refused.

    A snapshot appends to [records.log], then renames [snapshot.afex]
    into place, then truncates [wal.log]. Kill the process anywhere —
    mid-append, between the log append and the rename, between the
    rename and the journal truncation — and [--resume] reconstructs the
    exact state: log bytes past the mark are dropped, the logged records
    and the snapshot restore the last watermark, the journal tail replays
    the outcomes journaled after it (a whole group written ahead of the
    search included, so fewer tests run again), and the deterministic
    explorer regenerates everything else. A kill inside a group's write
    leaves whole records and one torn tail, which resume drops. The
    final export is byte-identical to the uninterrupted run's (proven in
    CI by a kill -9 harness).

    Durability is against process death, not media loss: files are
    handed to the OS on every write but not fsynced. *)

module Snapshot : sig
  type mark = {
    logged : int;  (** [records.log] holds records [1 .. logged] ... *)
    log_bytes : int;  (** ... in exactly its first [log_bytes] bytes *)
  }

  type t = {
    meta : (string * string) list;
        (** campaign identity: every flag that shapes the search, checked
            on resume so a snapshot cannot silently continue under a
            different configuration *)
    mark : mark;
    explorer : Afex.Explorer.Snapshot.t;
        (** in a decoded file, [records] holds only the records above
            the mark; {!loaded_snapshot} puts the logged ones back in
            front *)
  }

  val encode : t -> string
  (** Versioned ([afex-checkpoint 9]) and checksummed; the exact bytes
      written to [snapshot.afex]. Encoding is a pure function of the
      snapshot, so equal states produce equal files. *)

  val decode : string -> (t, string) result
  (** Total inverse of {!encode}: truncation, bit flips, other versions
      (the text format of version 5 and older included) and structural
      damage all return [Error], never raise. *)
end

(** The framing that the journal and the record log share: per record,
    a 12-byte header (the payload's length, the checksum of those 4
    length bytes and the checksum of the payload, each 4 bytes
    big-endian), then the payload. A handle frames into one reused
    buffer, so framing a record allocates nothing once that buffer has
    grown. *)
module Framer : sig
  type t

  val create : unit -> t

  val start : t -> Buffer.t
  (** The handle's payload buffer, emptied: write one record's payload
      into it, then {!finish}. *)

  val finish : t -> unit
  (** Frame the payload written since {!start} after the records
      already framed. *)

  val contents : t -> string
  (** The records framed since the last write, as they would be
      written. *)
end

type hooks = {
  on_append : int -> unit;
      (** called once per journal record, after the write of its group,
          with the running count of records journaled — the kill-9 test
          harness raises from here to simulate a crash after a precise
          write *)
  before_rename : unit -> unit;
      (** called between the record-log append and the snapshot
          [rename] — the crash window in which [records.log] runs ahead
          of the snapshot's mark *)
  after_rename : unit -> unit;
      (** called between the snapshot [rename] and the journal
          truncation — the crash window that makes stale journal entries
          possible *)
}

val no_hooks : hooks

type t

val start :
  ?hooks:hooks -> ?every:int -> dir:string -> (string * string) list ->
  (t, string) result
(** Open [dir] (created if missing) for a fresh campaign: an empty
    journal and record log, no snapshot yet. [every] is the snapshot
    cadence in reported outcomes (default 500). [Error] if the directory
    already holds a snapshot — resuming must be explicit. *)

val resume :
  ?hooks:hooks -> ?every:int -> dir:string -> (string * string) list ->
  (t, string) result
(** Load [dir]'s snapshot, verify the campaign metadata matches, check
    that [records.log] holds what the snapshot's mark vouches for (every
    record checksum inside the mark, births [1 .. logged]; a short,
    missing or damaged log is an [Error]) and drop its bytes past the
    mark, decode the journal tail (dropping at most one torn final
    record, rejecting any other corruption), and queue the journaled
    outcomes for replay. Journal entries for iterations the snapshot already
    covers — possible when the crash hit between the snapshot rename and
    the journal truncation — are discarded; what remains must continue
    contiguously from the snapshot's iteration count. *)

val resumed : t -> bool
val dir : t -> string

val loaded_snapshot : t -> Snapshot.t option
(** The snapshot a {!resume} loaded, with the logged records in front of
    its own, so [explorer.records] is the whole history; [None] after
    {!start}. *)

val next_replay :
  t -> (int * Afex_faultspace.Point.t * Message.run_report) option
(** Pop the next journaled outcome to replay, oldest first: the
    absolute iteration number, the candidate's point, and the measured
    report. *)

val replay_pending : t -> bool

val due : t -> iterations:int -> bool
(** Whether the cadence calls for a snapshot — never while journaled
    outcomes are still waiting to replay (a snapshot truncates the
    journal, which would drop them). *)

val stage :
  t -> point:Afex_faultspace.Point.t -> seq:int -> Afex_injector.Outcome.t ->
  unit
(** Frame one outcome's journal record ([seq] is the absolute iteration
    number) after those already staged. Nothing is written until
    {!flush}. The record is encoded straight from the outcome
    ({!Message.V2.encode_outcome}), so once the handle's buffers have
    grown staging allocates nothing. Stage outcomes in ascending,
    contiguous [seq] order, each once. *)

val flush : t -> unit
(** Write every staged record in one [write], then call [on_append]
    once per record. Does nothing when nothing is staged. *)

val write_snapshot : t -> Afex.Explorer.t -> unit
(** Capture the explorer (walking its records only down to the mark),
    append the records that became final to [records.log], atomically
    replace [snapshot.afex], and truncate the journal. Every journaled
    outcome must have been reported to the explorer by then.
    @raise Invalid_argument if the explorer has candidates in flight or
    journal records are staged and not flushed. *)

type stats = {
  was_resumed : bool;
  snapshots_written : int;
  wal_appends : int;  (** journal records written *)
  wal_writes : int;  (** [write]s that carried them, one per group *)
  replayed_records : int;  (** journaled outcomes applied without re-execution *)
}

val stats : t -> stats

val close : t -> unit
(** Close the journal and the record log. The checkpoint stays
    resumable. *)
