(** The explorer <-> node-manager protocol (§6, Fig. 2).

    The explorer sends fault scenarios; managers break them into atomic
    faults, drive injectors and sensors, and send back the measured
    result. Every decoder is total and returns [Error] on malformed
    input — wire bytes are never trusted.

    There is one wire protocol, {!V2}: a connection opens with a
    [HELLO afex 2] handshake, the manager answers [WELCOME afex 2] or,
    for any other version, [REJECT] with a readable reason, and from
    then on each frame packs several varint-encoded binary records.

    The {!Checkpoint} files store the same report data with the same
    {{!field_codecs}field codecs}: the journal holds {!V2.encode_reply}
    records, and the snapshot and record log are built field by field
    from the codecs below. *)

val protocol_version : int
(** The one wire protocol version (2): the only one [HELLO] offers and
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
    length minus one. Scans the bitset's bytes; builds no list. *)

val add_status :
  Buffer.t -> Afex_injector.Outcome.status -> triggered:bool -> unit
(** One byte: the status code and the triggered flag. *)

val fault_to_string : Afex_injector.Fault.t -> string
(** The fault as its scenario string, the form both the wire's
    dictionary and the checkpoint records carry. *)

val fault_of_string : string -> (Afex_injector.Fault.t, string) result

type cursor = { data : string; mutable pos : int }
(** A read position in [data]. *)

val remaining : cursor -> int
val read_uv : cursor -> (int, string) result
val read_sv : cursor -> (int, string) result

val read_str : cursor -> (string, string) result
(** [Error] beyond 1 MiB. *)

val read_i64 : cursor -> (int64, string) result
val read_f64 : cursor -> (float, string) result

val read_coverage : cursor -> (Afex_stats.Bitset.t, string) result
(** The bitset {!add_coverage} wrote, sized to end at its highest block:
    its capacity is that block plus one (0 when empty). [Error] when a
    block index reaches 1 Mi, so a few bytes never ask for a bitset
    beyond 128 KiB. *)

val read_status :
  cursor -> (Afex_injector.Outcome.status * bool, string) result
(** The status and the triggered flag. *)

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
  new_blocks : int;
      (** manager-side guess; the explorer recomputes against its own
          covered set, so managers send 0 *)
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
(** Rebuild the full outcome on the explorer side, its coverage copied
    into a bitset of capacity [total_blocks]. [Error] if the report's
    coverage is wider, which for a decoded report means a block outside
    [\[0, total_blocks)]. *)

(** {2 Wire protocol v2}

    The binary wire codec. A frame payload is a concatenation of tagged
    records built from the {{!field_codecs}field codecs} — requests and
    reports coalesce, many to a frame. Each direction carries
    per-connection codec state:

    - the server interns stack frames and fault descriptors into a
      dictionary, announced to the client through incremental [DICT]
      records (explicit base id, new entries only), so steady-state
      reports ship int ids;
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
  (** The interning dictionary: string -> id, grown as reports mention
      new stack frames or fault descriptors. *)

  val server_enc : unit -> server_enc

  val server_dict_size : server_enc -> int

  val encode_reply : server_enc -> Buffer.t -> from_manager -> unit
  (** Append one reply. Newly interned strings (stack frames and the
      fault descriptor) are announced in a [DICT] record immediately
      preceding the report that uses them, inside the same frame. *)

  type client_dec
  (** The mirror dictionary: id -> frame string. *)

  val client_dec : unit -> client_dec

  val client_dict_size : client_dec -> int

  val decode_replies :
    client_dec -> string -> (from_manager list, string) result
  (** Decode a frame payload into its replies, in order, applying
      [DICT] records to the dictionary as they appear. Gaps,
      conflicting redefinitions and unknown ids are [Error]. *)
end
