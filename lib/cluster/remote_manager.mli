(** A node manager on the far side of a {!Transport} connection (§6.1):
    the pipelined client the event loop talks to, and the server loop
    that puts a real {!Node_manager} behind the wire protocol.

    There is one client, {!Pipelined}, and one wire protocol
    ({!Message.V2}). The client owns reliability: a strict version
    handshake on every connection, several sequence-numbered requests
    outstanding at once with replies matched out of order (stale and
    duplicated replies are skipped), and reconnection on any transport
    fault, with the exponential backoff schedule surfaced as data rather
    than slept. After [max_attempts] consecutive connection failures the
    manager is abandoned. Every request a failure strands is handed back
    to the caller — {!Async_executor}, which re-runs it locally — so a
    dead or byzantine manager can slow a campaign down but never corrupt
    it. The dial and the handshake are the only blocking calls: each
    waits at most the connect or greeting timeout, on the caller's
    thread. Completions re-enter the explorer through the
    runtime's reorder buffer, so remote health affects throughput, never
    the explored history. *)

type error =
  | Transport of Transport.error
  | Protocol of string
      (** handshake failure, version mismatch, or an undecodable reply *)
  | Manager of string
      (** the manager executed the scenario and reported a failure;
          deterministic, so never retried *)
  | Exhausted of { attempts : int; last : string }
      (** retry budget spent; [last] is the final attempt's failure *)

val string_of_error : error -> string

(** {2 Dialing} *)

type spec = {
  name : string;
  dial : unit -> (Transport.t, Transport.error) result;
  max_attempts : int;
      (** consecutive connection failures before the manager is
          abandoned *)
  backoff_ms : float;  (** base of the exponential reconnect backoff *)
}

val spec :
  ?max_attempts:int ->
  ?backoff_ms:float ->
  name:string ->
  (unit -> (Transport.t, Transport.error) result) ->
  spec
(** Defaults: 3 attempts, 50 ms base backoff.
    @raise Invalid_argument if [max_attempts < 1]. *)

val tcp_spec :
  ?recv_timeout_ms:int ->
  ?max_attempts:int ->
  ?backoff_ms:float ->
  host:string ->
  port:int ->
  unit ->
  spec
(** [recv_timeout_ms] bounds the handshake's wait for the manager's
    greeting. *)

type stats = {
  requests : int;
  retries : int;  (** connection-level failures *)
  dials : int;
  manager_errors : int;
  frames_out : int;  (** frames sent, across all connections so far *)
  frames_in : int;
  bytes_out : int;  (** wire bytes sent, frame headers included *)
  bytes_in : int;
  dict_size : int;
      (** stack frames interned on the current connection's dictionary;
          0 when disconnected *)
}

(** {2 The pipelined client}

    The client keeps several seq-tagged requests outstanding on one
    connection, matches responses {e out of order}, and never sleeps:
    every failure is reported synchronously and the retry/backoff
    schedule is exposed as data ({!Pipelined.backoff_ms}) for the caller
    — in practice [Async_executor]'s timer wheel — to turn into a
    deadline, so other in-flight tests keep progressing while a manager
    reconnects. *)

module Pipelined : sig
  type conn

  val create : ?credit:int -> spec -> total_blocks:int -> conn
  (** No I/O; the first {!submit} dials. [credit] (default effectively
      unbounded, [max_int]) is the per-connection in-flight budget: how
      many requests may ride this connection concurrently. The event
      loop gives each manager its share of its [inflight], rounded up
      ([Async_executor.create]). [total_blocks] sizes the
      coverage bitsets rebuilt from wire reports.
      @raise Invalid_argument if [credit < 1]. *)

  val submit : conn -> tag:int -> Afex_faultspace.Scenario.t -> (unit, error) result
  (** Send one request without waiting for its response. [tag] is the
      caller's identifier for the test (the pool uses batch slots); it
      comes back in {!drain}. On any failure the connection is dropped
      ({!take_orphans} yields every request that was riding on it) and
      the error returned — the caller owns the retry/fallback policy.
      A dial whose handshake is rejected, or welcomed with any version
      but {!Message.protocol_version}, is such a failure. *)

  val drain : conn -> (int * (Afex_injector.Outcome.t, error) result) list
  (** Collect every response currently available, without blocking
      (receive with a zero timeout). Responses are matched to tags by
      sequence number, in whatever order the manager answered, and
      rebuilt into full outcomes (coverage, fault, stacks, exact
      duration), so the explorer's accounting is bit-identical to an
      in-process run; stale duplicates (chaos) are skipped. A
      connection-level failure — undecodable frame, closed peer, a
      [seq = -1] manager error — drops the connection; the affected
      tags appear in {!take_orphans}. *)

  val take_orphans : conn -> int list
  (** Tags stranded by connection failures since the last call, oldest
      first. Call after a failed {!submit}, after {!drain}, and after
      {!fail}. Each orphaned test must be re-run (the pool falls back to
      a local worker). *)

  val fail : conn -> unit
  (** Declare the connection dead (the caller's request timer expired:
      slow-manager straggler control). Drops it, orphans everything in
      flight, and counts a consecutive failure. *)

  val wait_fd : conn -> Unix.file_descr option
  (** The fd event loops [select] on, when connected. *)

  val dispatchable : conn -> bool
  (** The connection can accept a {!submit} (possibly dialing first);
      [false] once abandoned. The caller must additionally respect
      {!backoff_ms} after a failure. *)

  val abandoned : conn -> bool
  (** [max_attempts] consecutive connection failures: written off. *)

  val pending : conn -> int
  (** Requests on the wire awaiting a response. *)

  val has_credit : conn -> bool
  (** [pending < credit]: one more {!submit} is within budget. Callers
      enforce the budget (dispatchers skip a creditless connection);
      {!submit} itself never blocks or refuses on credit, so a manual
      override stays possible. *)

  val flush : conn -> (unit, error) result
  (** Send whatever is sitting in the coalescing buffer as one frame.
      {!submit} flushes by itself once the buffer holds 8 KiB, once it
      holds half the credit's requests (at least one), and when credit
      runs out, so with a credit of 2 or more the manager runs one
      half-window while the explorer handles the replies to the other;
      the event loop calls this before blocking in [select], so a
      partially filled frame never stalls the pipeline.
      No-op when the buffer is empty or when disconnected. On [Error]
      the connection was dropped ({!take_orphans} applies). *)

  val buffered : conn -> int
  (** Bytes currently coalescing (0 when disconnected). *)

  val awaiting : conn -> int -> bool
  (** [awaiting conn tag]: is [tag] still on this connection's wire? A
      request timer that fires after its test already completed (or was
      orphaned elsewhere) must not punish the connection. *)

  val failures : conn -> int
  (** Consecutive connection-level failures (reset by any success). *)

  val backoff_ms : conn -> float
  (** How long the caller should wait before the next {!submit} after a
      failure: an exponential schedule over consecutive failures,
      surfaced as data for a timer wheel. *)

  val max_attempts : conn -> int
  val name : conn -> string
  val stats : conn -> stats

  val close : conn -> unit
  (** Best-effort [Shutdown], then abandons the connection. *)
end

(** {2 The server side} *)

val serve_connection : Node_manager.t -> Transport.t -> (unit, error) result
(** Handshake — welcoming [HELLO afex 2] and answering any other version
    with a [REJECT] that names version 2, then [Error (Protocol _)] —
    then decode requests / run them / reply until [Shutdown] or the peer
    disconnects (both [Ok]).

    Any decode failure (including dictionary/delta desync after a
    mangled frame) is answered with a manager error on sequence -1 and
    is then {e connection-fatal}: stateful codecs must never risk a
    silently wrong report. Replies to one incoming frame coalesce into
    one outgoing frame, split past 8 KiB. Receive timeouts while idle
    are tolerated. Always closes the transport. *)

val serve_tcp :
  ?host:string ->
  ?chaos_to_client:Transport.chaos ->
  ?chaos_seed:int ->
  port:int ->
  once:bool ->
  Afex.Executor.t ->
  (unit, error) result
(** The [afex serve] entry point: listen (port 0 picks an ephemeral port,
    announced on stdout as ["afex-manager listening on HOST:PORT"]),
    accept connections and serve each with a fresh {!Node_manager} over
    the given executor. [once] returns after the first connection ends.
    [chaos_to_client] mangles reply frames (a per-connection RNG stream
    derived from [chaos_seed]) — the CI chaos leg's server-side fault
    injection. *)

(** {2 In-process loopback}

    A real server loop behind a real (socketpair) transport, with the
    manager running on its own domain — the same code path as TCP minus
    the network, used by tests, benches and examples. *)

module Loopback : sig
  type server

  val create :
    ?chaos_to_server:Transport.chaos ->
    ?chaos_to_client:Transport.chaos ->
    ?chaos_seed:int ->
    ?recv_timeout_ms:int ->
    ?name:string ->
    executor:Afex.Executor.t ->
    unit ->
    server
  (** [chaos_to_server] mangles request frames, [chaos_to_client] reply
      frames; each connection derives fresh RNG streams from
      [chaos_seed] (default 0), so chaos runs are reproducible. *)

  val spec : ?max_attempts:int -> ?backoff_ms:float -> server -> spec
  (** Each dial spawns a fresh manager on a new domain. *)

  val connections : server -> int

  val shutdown : server -> unit
  (** Joins every connection domain. Close all clients first. *)
end
