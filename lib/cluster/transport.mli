(** Byte transport between the explorer and remote node managers (§6.1).

    The wire carries the {!Message} protocol inside checksummed,
    length-prefixed frames, so the endpoints can tell a
    truncated or corrupted delivery from a legitimate message — a
    fault-injection tool's own transport is tested under injected faults
    (see the [chaos] mangler and [test/test_transport.ml]).

    A frame is [magic "AF" | u32 payload length | u32 FNV-1a checksum |
    payload]. Any framing violation surfaces as a typed {!error}; the
    dispatcher above decides whether to reconnect, retry, or requeue the
    work locally. *)

type error =
  | Closed  (** orderly end of stream *)
  | Timeout  (** no complete frame within the receive timeout *)
  | Frame_too_large of int
      (** declared or submitted payload length exceeds {!max_frame} *)
  | Corrupt of string
      (** framing violation: bad magic, checksum mismatch, EOF inside a
          frame — the stream can no longer be trusted *)
  | Io of string  (** operating-system level failure *)

val string_of_error : error -> string

val max_frame : int
(** Maximum payload bytes per frame (4 MiB). A garbage length prefix is
    overwhelmingly likely to exceed this, turning stream desync into a
    prompt {!Frame_too_large} instead of an unbounded read. *)

val checksum : string -> int
(** The FNV-1a 32-bit checksum the frame layer uses, exposed so on-disk
    formats (checkpoint snapshots, write-ahead journals) can share the
    transport's corruption-detection discipline. *)

val checksum_bytes : Bytes.t -> pos:int -> len:int -> int
(** {!checksum} of the [len] bytes of [b] from [pos], read in place.
    @raise Invalid_argument if the range leaves [b]. *)

(** Frame encoding, exposed for tests and manglers. *)
module Frame : sig
  val encode : string -> string
  (** [encode payload] is the framed byte string.
      @raise Invalid_argument if the payload exceeds {!max_frame}. *)

  type decoder
  (** Incremental decoder over an arbitrary chunking of the byte
      stream. *)

  val create : unit -> decoder
  val feed : decoder -> string -> unit

  val next : decoder -> (string option, error) result
  (** [Ok None] = need more bytes; [Ok (Some payload)] = one complete,
      checksum-verified frame; [Error _] = the stream is corrupt. *)

  val pending : decoder -> int
  (** Bytes buffered but not yet consumed as a frame. *)
end

type counters = {
  mutable frames_out : int;
  mutable frames_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
}
(** Logical wire traffic on one connection: frames and bytes (header
    included) as handed to [send] / yielded by receive, counted before
    any chaos mangling. One sent frame corresponds to one [write] call,
    so [frames_out] doubles as a syscalls-per-test proxy. Owned by the
    transport — treat as read-only. *)

type t = {
  send : string -> (unit, error) result;
  recv : unit -> (string, error) result;
  try_recv : timeout_ms:int -> (string option, error) result;
      (** Like [recv] but bounded by the given timeout, with "nothing
          yet" reported as [Ok None] instead of an error; [timeout_ms =
          0] is a pure poll. This is the receive primitive pipelining
          event loops use — never blocking beyond their own deadline. *)
  wait_fd : unit -> Unix.file_descr option;
      (** The fd to [select] on for read-readiness, [None] once closed.
          Event loops multiplexing several connections block on these
          instead of calling [recv]. *)
  close : unit -> unit;  (** idempotent *)
  peer : string;  (** human-readable endpoint description *)
  counters : counters;
}
(** One endpoint of a connection, a framed transport over a connected
    stream socket (or socketpair end), built by {!pair}, {!connect_tcp}
    or {!accept}. Not thread-safe: a transport belongs to exactly one
    worker at a time. Each builder's [recv_timeout_ms] (default 5000)
    bounds every receive — a silent peer becomes {!Timeout}, never a
    deadlock. A [mangle] intercepts each encoded frame before it is
    written and returns the chunks actually sent — identity by default;
    {!chaos_mangler} injects transport faults. *)

val pair :
  ?recv_timeout_ms:int ->
  ?mangle_a:(string -> string list) ->
  ?mangle_b:(string -> string list) ->
  unit ->
  t * t
(** In-process loopback over [Unix.socketpair]. [mangle_a] corrupts
    frames sent by the first endpoint, [mangle_b] by the second. *)

val connect_tcp :
  ?recv_timeout_ms:int -> host:string -> port:int -> unit -> (t, error) result
(** Sets [TCP_NODELAY], as {!accept} does: the protocol does its own
    coalescing. *)

val listen_tcp :
  ?host:string -> port:int -> unit -> (Unix.file_descr * int, error) result
(** Bound, listening socket plus the actual port (useful with [port = 0]
    for an ephemeral port). *)

val accept :
  ?recv_timeout_ms:int ->
  ?mangle:(string -> string list) ->
  Unix.file_descr ->
  (t, error) result
(** [mangle] corrupts frames the server sends on the accepted connection
    — the TCP-side hook the CI chaos matrix drives. Sets [TCP_NODELAY]. *)

(** {2 Transport fault injection} *)

type chaos = {
  drop : float;  (** probability a frame is silently discarded *)
  duplicate : float;  (** probability a frame is delivered twice *)
  truncate : float;  (** probability a frame is cut short *)
  bitflip : float;  (** probability one bit of the frame is flipped *)
  garbage : float;  (** probability random bytes precede the frame *)
}

val no_chaos : chaos

val chaos_mangler : rng:Afex_stats.Rng.t -> chaos -> string -> string list
(** Seeded frame mangler for the [mangle] hooks of {!pair} and
    {!accept} ({!connect_tcp} takes none): every decision draws
    from [rng], so a chaos run is reproducible. The mangled stream must
    never be silently accepted — the checksum, magic and length checks
    above turn every surviving corruption into a typed {!error}. *)
