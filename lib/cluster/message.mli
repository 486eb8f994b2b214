(** The explorer <-> node-manager protocol (§6, Fig. 2).

    The explorer sends fault scenarios; managers break them into atomic
    faults, drive injectors and sensors, and send back the measured
    result. Every decoder is total and returns [Error] on malformed
    input — wire bytes are never trusted.

    There is one wire protocol, {!V2}: a connection opens with a
    [HELLO afex 2] handshake, the manager answers [WELCOME afex 2] or,
    for any other version, [REJECT] with a readable reason, and from
    then on each frame packs several varint-encoded binary records.

    The line-oriented text codec for reports ({!encode_from_manager},
    {!decode_from_manager}) and its field codecs are not a wire
    version: they are the record format of the checkpoint journal and
    snapshot, kept here because they encode the same data. *)

val protocol_version : int
(** The one wire protocol version (2): the only one [HELLO] offers and
    the only one a manager welcomes. *)

val max_line : int
(** Maximum accepted length of one protocol line (1 MiB); longer input is
    rejected by the decoders rather than parsed. *)

(** {2 Field codecs}

    The building blocks of the text report codec, exposed so the
    checkpoint snapshot and the outcome write-ahead journal encode the
    same data the same way — and inherit decoders that are already
    total. *)

val escape : string -> string
(** Percent-escape: the result contains no spaces, commas, [%], control
    or non-ASCII bytes, so it is safe as one token of a line. *)

val unescape : string -> (string, string) result
(** Total inverse of {!escape}. *)

val status_token : Afex_injector.Outcome.status -> string
val status_of_token : string -> (Afex_injector.Outcome.status, string) result

val encode_stack : string list option -> string
(** ["-"] for [None]; ["@<count>:<comma-joined escaped frames>"]
    otherwise. *)

val decode_stack : string -> (string list option, string) result

val encode_coverage : int list -> string
(** Ascending block indices as comma-joined runs (["a"], ["a-b"]); ["-"]
    when empty. *)

val decode_coverage : string -> (int list, string) result

val encode_fault : Afex_injector.Fault.t -> string
(** The fault as one escaped token (its scenario wire form). *)

val decode_fault : string -> (Afex_injector.Fault.t, string) result

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
  coverage : int list;
      (** covered basic-block indices — what the explorer's fitness and
          coverage accounting need to reproduce an in-process run
          bit-for-bit *)
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
(** Rebuild the full outcome on the explorer side. [Error] if a coverage
    index falls outside [\[0, total_blocks)]. *)

val encode_from_manager : from_manager -> string
(** The checkpoint journal's record codec: one text line. Stack frames
    and error messages are percent-escaped, so newlines, spaces, commas
    and non-ASCII bytes round-trip; the duration is carried as a
    hexadecimal float and round-trips exactly. Never sent on the
    wire. *)

val decode_from_manager : string -> (from_manager, string) result
(** Total inverse of {!encode_from_manager}. *)

(** {2 Wire protocol v2}

    The binary wire codec. A frame payload is a
    concatenation of tagged records — requests and reports coalesce,
    many to a frame — with LEB128 varint scalars and length-prefixed raw
    strings instead of percent-escaped text. Each direction carries
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
  (** {3 Varints} — exposed for tests and micro-benches. *)

  val varint_encode : Buffer.t -> int -> unit
  (** LEB128. @raise Invalid_argument on negative input. *)

  val svarint_encode : Buffer.t -> int -> unit
  (** Zigzag + LEB128; any [int]. *)

  val varint_decode : string -> pos:int -> (int * int, string) result
  (** [(value, next_pos)]; total — truncation and overflow are [Error]. *)

  val svarint_decode : string -> pos:int -> (int * int, string) result

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
