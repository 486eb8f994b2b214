(** A node manager on the far side of a {!Transport} connection (§6.1):
    the client-side proxy the dispatcher talks to, and the server loop
    that puts a real {!Node_manager} behind the wire protocol.

    The proxy owns reliability: a versioned handshake on every
    connection, sequence-numbered request/reply matching (stale and
    duplicated replies are skipped), bounded per-request retries with
    exponential backoff, and reconnection on any transport fault. After
    the retry budget is exhausted the request fails with a typed error —
    the caller then re-runs the scenario locally, so a dead or byzantine
    manager can slow a campaign down but never stall or corrupt it.

    Two callers drive this module: under the work-stealing {!Runtime}
    each manager gets a dedicated proxy domain that steals tasks from
    the shared deques and ships them through the blocking client below
    (falling back to running a failed task on the proxy itself), while
    the async event loop rides the {!Pipelined} client — several tagged
    requests outstanding per connection, matched out of order, with the
    backoff schedule surfaced as timer data instead of sleeps. Either
    way completions re-enter the explorer through the runtime's reorder
    buffer, so remote health affects throughput, never the explored
    history. *)

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
  max_attempts : int;  (** per-request attempts, including the first *)
  backoff_ms : float;  (** base of the exponential reconnect backoff *)
  wire : int;
      (** preferred wire protocol version offered in the handshake; a
          manager that rejects it is redialed offering v1 (counted as a
          downgrade, sticky for later reconnects) *)
  flush_bytes : int;
      (** v2 coalescing threshold: buffered request records are flushed
          once the frame payload reaches this size (the credit/event
          loop flushes sooner — see {!Pipelined.flush}) *)
}

val spec :
  ?max_attempts:int ->
  ?backoff_ms:float ->
  ?wire:int ->
  ?flush_bytes:int ->
  name:string ->
  (unit -> (Transport.t, Transport.error) result) ->
  spec
(** Defaults: 3 attempts, 50 ms base backoff, wire
    {!Message.protocol_version_max}, 8 KiB flush threshold.
    @raise Invalid_argument on a wire version this build cannot speak. *)

val tcp_spec :
  ?recv_timeout_ms:int ->
  ?max_attempts:int ->
  ?backoff_ms:float ->
  ?wire:int ->
  ?flush_bytes:int ->
  host:string ->
  port:int ->
  unit ->
  spec
(** [recv_timeout_ms] is the straggler timeout: a manager that holds a
    scenario longer forfeits it (the request is retried, and ultimately
    requeued locally by the pool). *)

(** {2 The client proxy} *)

type t

val create : spec -> total_blocks:int -> t
(** No I/O happens here: the first {!run_scenario} dials. [total_blocks]
    sizes the coverage bitsets rebuilt from wire reports. *)

type stats = {
  requests : int;
  retries : int;
  dials : int;
  manager_errors : int;
  wire : int;
      (** most recently negotiated protocol version; 0 before the first
          successful handshake *)
  wire_downgrades : int;
      (** times the manager rejected the preferred version and the
          connection fell back to v1 *)
  frames_out : int;  (** frames sent, across all connections so far *)
  frames_in : int;
  bytes_out : int;  (** wire bytes sent, frame headers included *)
  bytes_in : int;
  dict_size : int;
      (** stack frames interned on the current connection's v2
          dictionary; 0 when disconnected or on v1 *)
}

val stats : t -> stats
val name : t -> string

val run_scenario :
  t -> Afex_faultspace.Scenario.t -> (Afex_injector.Outcome.t, error) result
(** Ships the scenario, awaits the matching reply, rebuilds the full
    outcome (coverage, fault, stacks, exact duration) so the explorer's
    accounting is bit-identical to an in-process run. Bounded: every
    failure path ends in reconnect-and-retry at most
    [spec.max_attempts] times, then [Error]. *)

val close : t -> unit
(** Best-effort [Shutdown] to the manager, then closes. Idempotent. *)

(** {2 The pipelined client}

    The blocking proxy above keeps exactly one request on the wire and
    sleeps through reconnect backoff — fine on a dedicated proxy domain,
    fatal inside an event loop that multiplexes many in-flight tests.
    The pipelined client keeps several seq-tagged requests outstanding on
    one connection, matches responses {e out of order}, and never sleeps:
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
      loop sets it to its own [inflight].
      @raise Invalid_argument if [credit < 1]. *)

  val submit : conn -> tag:int -> Afex_faultspace.Scenario.t -> (unit, error) result
  (** Send one request without waiting for its response. [tag] is the
      caller's identifier for the test (the pool uses batch slots); it
      comes back in {!drain}. On any failure the connection is dropped
      ({!take_orphans} yields every request that was riding on it) and
      the error returned — the caller owns the retry/fallback policy. *)

  val drain : conn -> (int * (Afex_injector.Outcome.t, error) result) list
  (** Collect every response currently available, without blocking
      (receive with a zero timeout). Responses are matched to tags by
      sequence number, in whatever order the manager answered; stale
      duplicates (chaos) are skipped. A connection-level failure —
      undecodable frame, closed peer, a [seq = -1] manager error — drops
      the connection; the affected tags appear in {!take_orphans}. *)

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
  (** Send whatever is sitting in the v2 coalescing buffer as one frame.
      {!submit} flushes by itself at [spec.flush_bytes] and when credit
      runs out; the event loop calls this before blocking in [select],
      so a partially filled frame never stalls the pipeline. No-op on
      v1, when the buffer is empty, or when disconnected. On [Error]
      the connection was dropped ({!take_orphans} applies). *)

  val buffered : conn -> int
  (** Bytes currently coalescing (0 on v1 / disconnected). *)

  val awaiting : conn -> int -> bool
  (** [awaiting conn tag]: is [tag] still on this connection's wire? A
      request timer that fires after its test already completed (or was
      orphaned elsewhere) must not punish the connection. *)

  val failures : conn -> int
  (** Consecutive connection-level failures (reset by any success). *)

  val backoff_ms : conn -> float
  (** How long the caller should wait before the next {!submit} after a
      failure — the same exponential schedule the blocking client
      sleeps, surfaced as data for a timer wheel. *)

  val max_attempts : conn -> int
  val name : conn -> string
  val stats : conn -> stats
  (** [retries] counts connection-level failures. *)

  val close : conn -> unit
  (** Best-effort [Shutdown], then abandons the connection. *)
end

(** {2 The server side} *)

val serve_connection :
  ?wire_max:int ->
  ?flush_bytes:int ->
  Node_manager.t ->
  Transport.t ->
  (unit, error) result
(** Handshake — welcoming any offered version up to [wire_max] (default
    {!Message.protocol_version_max}; 1 makes the server bit-for-bit a
    v1 server) and rejecting the rest — then decode requests / run them
    / reply until [Shutdown] or the peer disconnects (both [Ok]).

    Under v1, requests that fail to decode are answered with a
    [Manager_error] on sequence -1 and the connection survives; under
    v2 any decode failure (including dictionary/delta desync after a
    mangled frame) is answered on sequence -1 and then
    {e connection-fatal} — stateful codecs must never risk a silently
    wrong report. Replies to one incoming frame coalesce into one
    outgoing frame, split past [flush_bytes] (default 8 KiB). Receive
    timeouts while idle are tolerated. Always closes the transport. *)

val serve_tcp :
  ?host:string ->
  ?wire_max:int ->
  ?flush_bytes:int ->
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
    derived from [chaos_seed]) — the CI chaos matrix's server-side
    fault injection. *)

(** {2 In-process loopback}

    A real server loop behind a real (socketpair) transport, with the
    manager running on its own domain — the same code path as TCP minus
    the network, used by tests, benches and examples. *)

module Loopback : sig
  type server

  val create :
    ?wire_max:int ->
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
      [chaos_seed] (default 0), so chaos runs are reproducible.
      [wire_max] caps the server's negotiable protocol version —
      [~wire_max:1] stands in for an old v1-only manager in interop
      tests. *)

  val spec :
    ?max_attempts:int ->
    ?backoff_ms:float ->
    ?wire:int ->
    ?flush_bytes:int ->
    server ->
    spec
  (** Each dial spawns a fresh manager on a new domain. *)

  val connections : server -> int

  val shutdown : server -> unit
  (** Joins every connection domain. Close all clients first. *)
end
