(** The explorer <-> node-manager protocol (§6, Fig. 2).

    The explorer sends fault scenarios; managers break them into atomic
    faults, drive injectors and sensors, and send back the measured
    result. Every decoder is total and returns [Error] on malformed
    input — wire bytes are never trusted.

    There is one wire protocol, {!V2} (version 3; the module keeps its
    name): a connection opens with a [HELLO afex 3] handshake, the
    manager answers [WELCOME afex 3] or, for any other version, [REJECT]
    with a readable reason, and from then on each frame packs several
    varint-encoded binary records.

    The {!Checkpoint} files store the same report data with the same
    {{!field_codecs}field codecs}: the journal holds {!V2.encode_reply}
    records, and the snapshot and record log are built field by field
    from the codecs below. *)

val protocol_version : int
(** The one wire protocol version (3): the only one [HELLO] offers and
    the only one a manager welcomes. *)

(** {2:field_codecs Field codecs}

    The binary building blocks of {!V2} and of the checkpoint files.
    Writers append to a [Buffer.t]; readers advance a {!cursor} and are
    total: truncation, overflow and unknown codes are [Error]. *)

val add_uv : Buffer.t -> int -> unit
(** LEB128. @raise Invalid_argument on negative input. *)

val add_sv : Buffer.t -> int -> unit
(** Zigzag + LEB128; any [int]. *)

val add_str : Buffer.t -> string -> unit
(** Length varint, then the raw bytes. *)

val add_i64 : Buffer.t -> int64 -> unit
(** 8 bytes, big-endian. *)

val add_f64 : Buffer.t -> float -> unit
(** The IEEE bits as {!add_i64}: round-trips exactly. *)

val add_coverage : Buffer.t -> Afex_stats.Bitset.t -> unit
(** The set bits as run-length varints: the run count, then per run its
    gap from the previous run's end (the first run's start) and its
    length minus one. Scans the bitset a word at a time
    ({!Afex_stats.Bitset.fold_runs}) and allocates nothing. *)

val add_status :
  Buffer.t -> Afex_injector.Outcome.status -> triggered:bool -> unit
(** One byte: the status code and the triggered flag. *)

val add_fault : Buffer.t -> Afex_injector.Fault.t -> unit
(** The fault's five fields (Fig. 5), as wire replies, journal records
    and logged records carry it: the test id, function, call number,
    errno and return value, the integers as {!add_sv} and the names as
    {!add_str}, so any name round-trips exactly. *)

type cursor = { data : string; mutable pos : int }
(** A read position in [data]. *)

val remaining : cursor -> int
val read_uv : cursor -> (int, string) result
val read_sv : cursor -> (int, string) result

val read_str : cursor -> (string, string) result
(** [Error] beyond 1 MiB. *)

val read_i64 : cursor -> (int64, string) result
val read_f64 : cursor -> (float, string) result

val read_coverage :
  ?capacity:int -> cursor -> (Afex_stats.Bitset.t, string) result
(** The bitset {!add_coverage} wrote, of capacity [capacity] (default
    0) when every block falls below it, else sized to end at its
    highest block: that block plus one. [Error] when a block index
    reaches 1 Mi, so a few bytes never ask for a bitset beyond
    128 KiB. *)

val read_status :
  cursor -> (Afex_injector.Outcome.status * bool, string) result
(** The status and the triggered flag. *)

val read_fault : cursor -> (Afex_injector.Fault.t, string) result
(** The fault {!add_fault} wrote. *)

(** {2 Handshake} *)

type greeting = Welcome of int | Reject of string

val encode_hello : version:int -> string
val decode_hello : string -> (int, string) result
val encode_welcome : version:int -> string
val encode_reject : reason:string -> string
val decode_greeting : string -> (greeting, string) result

(** {2 Explorer -> manager} *)

type to_manager =
  | Run_scenario of { seq : int; scenario : Afex_faultspace.Scenario.t }
  | Shutdown

(** {2 Manager -> explorer} *)

type run_report = {
  seq : int;
  status : Afex_injector.Outcome.status;
  triggered : bool;
  fault : Afex_injector.Fault.t;
      (** the atomic fault the manager decoded and injected *)
  coverage : Afex_stats.Bitset.t;
      (** covered basic blocks — what the explorer's fitness and
          coverage accounting need to reproduce an in-process run
          bit-for-bit. {!report_of_outcome} shares the outcome's bitset;
          a decoded report's ends at its highest block
          ({!read_coverage}) *)
  injection_stack : string list option;
  crash_stack : string list option;
  duration_ms : float;
}

type from_manager =
  | Scenario_result of run_report
  | Manager_error of { seq : int; message : string }
      (** [seq = -1] when the manager could not even decode the request *)

val report_of_outcome : seq:int -> Afex_injector.Outcome.t -> run_report

val outcome_of_report :
  total_blocks:int -> run_report -> (Afex_injector.Outcome.t, string) result
(** Rebuild the full outcome on the explorer side. Its coverage is the
    report's bitset when that has capacity [total_blocks], as a
    {!V2.client_dec} made with [~total_blocks] decodes it, else a copy
    of that capacity. [Error] if the report's coverage is wider, which
    for a decoded report means a block outside [\[0, total_blocks)]. *)

(** {2 The binary wire protocol (version 3)}

    The binary wire codec. A frame payload is a concatenation of tagged
    records built from the {{!field_codecs}field codecs} — requests and
    reports coalesce, many to a frame. Each direction carries
    per-connection codec state:

    - the server interns stack frames into a dictionary, announced to
      the client through incremental [DICT] records (explicit base id,
      new entries only), so steady-state reports ship int ids; the
      fault crosses as its fields ({!add_fault}), so the target's code,
      not the campaign's length, bounds the dictionary;
    - the client delta-encodes each scenario against the previous one
      sent on the connection (mutations touch few axes).

    All state is per-connection and resets on reconnect — a fresh
    {!client_enc}/{!server_dec}/{!server_enc}/{!client_dec} per dial.
    Desynchronization (a dropped or duplicated frame that still passes
    the frame checksum) is detected, never silently absorbed: requests
    carry a generation counter and a full-scenario checksum, dictionary
    records fail on gaps or conflicting redefinitions, and reports fail
    on unknown ids. Every decoder returns [Error] — connection-fatal by
    protocol: the peer resets and falls back like any transport fault. *)

module V2 : sig
  (** {3 Client -> server} *)

  type client_enc
  (** Encoder state: the last scenario sent (delta base) and the
      outgoing generation counter. *)

  val client_enc : unit -> client_enc

  val encode_request :
    client_enc -> Buffer.t -> seq:int -> Afex_faultspace.Scenario.t -> unit
  (** Append one request record. Sends a positional delta against the
      previous scenario when the axis names line up and strictly fewer
      bindings changed than the scenario holds, else the full scenario.
      Always carries the generation number and an FNV-1a checksum of
      the complete scenario. @raise Invalid_argument on negative [seq]. *)

  val encode_shutdown : Buffer.t -> unit

  type server_dec
  (** Decoder state: the last reconstructed scenario and the highest
      generation applied. *)

  val server_dec : unit -> server_dec

  val decode_requests :
    server_dec -> string -> (to_manager list, string) result
  (** Decode a frame payload into its requests, in order. Requests with
      a stale generation (a duplicated frame) are skipped without
      touching decoder state; a generation gap, checksum mismatch,
      delta without a base, or malformed record is [Error]. *)

  (** {3 Server -> client} *)

  type server_enc
  (** The interning dictionary: stack frame -> id, grown as reports
      mention new frames. *)

  val server_enc : unit -> server_enc

  val server_dict_size : server_enc -> int

  val encode_reply : server_enc -> Buffer.t -> from_manager -> unit
  (** Append one reply. Newly interned stack frames are announced in a
      [DICT] record immediately preceding the report that uses them,
      inside the same frame. *)

  type record_dict
  (** Scratch for {!encode_outcome}: a reused array of the record's
      distinct frames. *)

  val record_dict : unit -> record_dict

  val encode_outcome :
    record_dict -> Buffer.t -> seq:int -> Afex_injector.Outcome.t -> unit
  (** Append exactly what [encode_reply (server_enc ()) b (Scenario_result
      (report_of_outcome ~seq o))] appends — a record that decodes alone,
      with its own [DICT] of its distinct frames in first-use order —
      straight from the outcome. The frames are found by a linear scan
      of the scratch array, and the RESULT record is written by the code
      {!encode_reply} uses, so once the scratch has grown a record
      allocates nothing. *)

  type client_dec
  (** The mirror dictionary: id -> frame string. *)

  val client_dec : ?total_blocks:int -> unit -> client_dec
  (** A decoder whose reports' coverage bitsets have capacity
      [total_blocks] when every block falls below it (see
      {!read_coverage}), so {!outcome_of_report} at that block count
      shares them instead of copying. Without it, coverage ends at its
      highest block. *)

  val client_dict_size : client_dec -> int

  val decode_replies :
    client_dec -> string -> (from_manager list, string) result
  (** Decode a frame payload into its replies, in order, applying
      [DICT] records to the dictionary as they appear. Gaps,
      conflicting redefinitions and unknown ids are [Error]. *)
end
