module Rng = Afex_stats.Rng

let src = Logs.Src.create "afex.remote" ~doc:"Remote node-manager dispatch"

module Log = (val Logs.src_log src : Logs.LOG)

type error =
  | Transport of Transport.error
  | Protocol of string
  | Manager of string
  | Exhausted of { attempts : int; last : string }

let string_of_error = function
  | Transport e -> Transport.string_of_error e
  | Protocol m -> Printf.sprintf "protocol error: %s" m
  | Manager m -> Printf.sprintf "manager error: %s" m
  | Exhausted { attempts; last } ->
      Printf.sprintf "gave up after %d attempts (last: %s)" attempts last

(* ------------------------------------------------------------------ *)
(* Dialing                                                             *)
(* ------------------------------------------------------------------ *)

type spec = {
  name : string;
  dial : unit -> (Transport.t, Transport.error) result;
  max_attempts : int;
  backoff_ms : float;
}

let spec ?(max_attempts = 3) ?(backoff_ms = 50.0) ~name dial =
  if max_attempts < 1 then invalid_arg "Remote_manager.spec: need at least one attempt";
  { name; dial; max_attempts; backoff_ms }

let tcp_spec ?recv_timeout_ms ?max_attempts ?backoff_ms ~host ~port () =
  spec ?max_attempts ?backoff_ms
    ~name:(Printf.sprintf "%s:%d" host port)
    (fun () -> Transport.connect_tcp ?recv_timeout_ms ~host ~port ())

(* Both ends coalesce records into one frame until it reaches this many
   payload bytes (roughly a hundred requests); the client also flushes
   once half its credit is queued, when credit runs out, and when the
   event loop is about to wait. *)
let flush_bytes = 8192

(* ------------------------------------------------------------------ *)
(* Handshake and per-connection codec state                            *)
(* ------------------------------------------------------------------ *)

(* One connection plus everything whose lifetime is the connection's:
   the scenario-delta encoder, the mirror stack-frame dictionary, and
   the outgoing coalescing buffer. A redial builds a fresh [live] —
   that is the defined dictionary reset on reconnect. *)
type live = {
  tr : Transport.t;
  enc : Message.V2.client_enc;
  dec : Message.V2.client_dec;
  out : Buffer.t;
  mutable queued : int; (* requests in [out] *)
}

let live tr =
  {
    tr;
    enc = Message.V2.client_enc ();
    dec = Message.V2.client_dec ();
    out = Buffer.create 256;
    queued = 0;
  }

(* Wire accounting that outlives connections: each transport's own
   counters are folded in exactly once, when the connection retires. *)
type wire_acct = {
  mutable frames_out : int;
  mutable frames_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
}

let retire acct (l : live) =
  let c = l.tr.Transport.counters in
  acct.frames_out <- acct.frames_out + c.Transport.frames_out;
  acct.frames_in <- acct.frames_in + c.Transport.frames_in;
  acct.bytes_out <- acct.bytes_out + c.Transport.bytes_out;
  acct.bytes_in <- acct.bytes_in + c.Transport.bytes_in;
  l.tr.Transport.close ()

(* Offer the one protocol version; anything but a welcome to exactly
   that version is a failed dial. *)
let hello (conn : Transport.t) =
  let version = Message.protocol_version in
  match conn.send (Message.encode_hello ~version) with
  | Error e -> Error (Transport e)
  | Ok () -> (
      match conn.recv () with
      | Error e -> Error (Transport e)
      | Ok line -> (
          match Message.decode_greeting line with
          | Error m -> Error (Protocol m)
          | Ok (Message.Reject reason) ->
              Error (Protocol ("manager rejected the handshake: " ^ reason))
          | Ok (Message.Welcome v) when v = version -> Ok ()
          | Ok (Message.Welcome v) ->
              Error
                (Protocol
                   (Printf.sprintf "manager welcomed version %d to an offer of %d"
                      v version))))

type stats = {
  requests : int;
  retries : int;
  dials : int;
  manager_errors : int;
  frames_out : int;
  frames_in : int;
  bytes_out : int;
  bytes_in : int;
  dict_size : int;
}

(* ------------------------------------------------------------------ *)
(* Pipelined client                                                    *)
(* ------------------------------------------------------------------ *)

module Pipelined = struct
  type conn_state = Idle | Connected of live | Abandoned

  type conn = {
    spec : spec;
    total_blocks : int;
    mutable state : conn_state;
    outstanding : (int, int) Hashtbl.t; (* wire seq -> caller tag *)
    mutable orphans : int list;
    acct : wire_acct;
    mutable seq : int;
    credit : int; (* in-flight cap *)
    mutable failures : int; (* consecutive connection-level failures *)
    mutable n_requests : int;
    mutable n_retries : int;
    mutable n_dials : int;
    mutable n_manager_errors : int;
  }

  let create ?(credit = max_int) spec ~total_blocks =
    if credit < 1 then invalid_arg "Pipelined.create: credit must be positive";
    {
      spec;
      total_blocks;
      state = Idle;
      outstanding = Hashtbl.create 16;
      orphans = [];
      acct = { frames_out = 0; frames_in = 0; bytes_out = 0; bytes_in = 0 };
      seq = 0;
      credit;
      failures = 0;
      n_requests = 0;
      n_retries = 0;
      n_dials = 0;
      n_manager_errors = 0;
    }

  let name t = t.spec.name
  let pending t = Hashtbl.length t.outstanding
  let has_credit t = Hashtbl.length t.outstanding < t.credit

  let awaiting t tag =
    Hashtbl.fold (fun _ tg acc -> acc || tg = tag) t.outstanding false
  let failures t = t.failures
  let max_attempts t = t.spec.max_attempts

  (* Exponential reconnect backoff, surfaced as data: the event loop
     turns it into a timer-wheel deadline, so other in-flight tests keep
     progressing while a manager cools off. *)
  let backoff_ms t =
    if t.spec.backoff_ms <= 0.0 then 0.0
    else t.spec.backoff_ms *. (2.0 ** float_of_int (max 0 (t.failures - 1)))

  let abandoned t = match t.state with Abandoned -> true | _ -> false

  let dispatchable t =
    match t.state with Abandoned -> false | Idle | Connected _ -> true

  let wait_fd t =
    match t.state with
    | Connected l -> l.tr.Transport.wait_fd ()
    | Idle | Abandoned -> None

  let stats t =
    let a = t.acct in
    let frames_out, frames_in, bytes_out, bytes_in, dict_size =
      match t.state with
      | Connected l ->
          let c = l.tr.Transport.counters in
          ( a.frames_out + c.Transport.frames_out,
            a.frames_in + c.Transport.frames_in,
            a.bytes_out + c.Transport.bytes_out,
            a.bytes_in + c.Transport.bytes_in,
            Message.V2.client_dict_size l.dec )
      | Idle | Abandoned -> (a.frames_out, a.frames_in, a.bytes_out, a.bytes_in, 0)
    in
    {
      requests = t.n_requests;
      retries = t.n_retries;
      dials = t.n_dials;
      manager_errors = t.n_manager_errors;
      frames_out;
      frames_in;
      bytes_out;
      bytes_in;
      dict_size;
    }

  let take_orphans t =
    let tags = List.rev t.orphans in
    t.orphans <- [];
    tags

  (* Drop the connection: every request still in flight on it is orphaned
     (the caller re-runs those locally), and after [max_attempts]
     consecutive failures the manager is written off for good. Never
     sleeps — backoff is the {e caller's} timer (see {!backoff_ms}). *)
  let fail t =
    (match t.state with
    | Connected l -> retire t.acct l
    | Idle | Abandoned -> ());
    Hashtbl.iter (fun _ tag -> t.orphans <- tag :: t.orphans) t.outstanding;
    Hashtbl.reset t.outstanding;
    t.failures <- t.failures + 1;
    t.n_retries <- t.n_retries + 1;
    t.state <- (if t.failures >= t.spec.max_attempts then Abandoned else Idle);
    Log.debug (fun m ->
        m "%s: pipelined connection failure %d/%d" t.spec.name t.failures
          t.spec.max_attempts)

  let connection t =
    match t.state with
    | Connected l -> Ok l
    | Abandoned ->
        Error
          (Exhausted { attempts = t.spec.max_attempts; last = "manager abandoned" })
    | Idle -> (
        t.n_dials <- t.n_dials + 1;
        match t.spec.dial () with
        | Error e ->
            fail t;
            Error (Transport e)
        | Ok c -> (
            match hello c with
            | Ok () ->
                let l = live c in
                t.state <- Connected l;
                Ok l
            | Error e ->
                c.Transport.close ();
                fail t;
                Error e))

  let flush_live t (l : live) =
    if Buffer.length l.out = 0 then Ok ()
    else begin
      let payload = Buffer.contents l.out in
      Buffer.clear l.out;
      l.queued <- 0;
      match l.tr.Transport.send payload with
      | Ok () -> Ok ()
      | Error e ->
          fail t;
          Error (Transport e)
    end

  let flush t =
    match t.state with
    | Connected l -> flush_live t l
    | Idle | Abandoned -> Ok ()

  let buffered t =
    match t.state with
    | Connected l -> Buffer.length l.out
    | Idle | Abandoned -> 0

  let submit t ~tag scenario =
    match connection t with
    | Error e -> Error e
    | Ok l ->
        t.seq <- t.seq + 1;
        let seq = t.seq in
        (* Coalesce: the record lands in the connection buffer and the
           frame goes out when the buffer reaches [flush_bytes], when
           half the credit is queued (the manager runs one half-window
           while the explorer handles the replies to the other), when
           the credit is exhausted (nothing more is coming until replies
           arrive), or when the event loop is about to wait ({!flush}). *)
        Message.V2.encode_request l.enc l.out ~seq scenario;
        l.queued <- l.queued + 1;
        t.n_requests <- t.n_requests + 1;
        Hashtbl.replace t.outstanding seq tag;
        if
          Buffer.length l.out >= flush_bytes
          || l.queued >= t.credit / 2
          || not (has_credit t)
        then (
          match flush_live t l with
          | Ok () -> Ok ()
          | Error e ->
              (* [fail] orphaned everything on the wire including this
                 request, but its failure is reported synchronously: the
                 caller owns this retry, not {!take_orphans}. *)
              t.orphans <- List.filter (fun tg -> tg <> tag) t.orphans;
              Error e)
        else Ok ()

  (* Everything already on the wire, matched out of order: responses
     carry the request's seq, so a manager answering seq 5 before seq 3
     (or a duplicated frame from the chaos mangler) is handled without
     any head-of-line blocking. *)
  let drain t =
    match t.state with
    | Idle | Abandoned -> []
    | Connected l -> (
        (* Push anything still coalescing before waiting on replies. *)
        match flush_live t l with
        | Error _ -> []
        | Ok () ->
            let rec consume msgs acc =
              match msgs with
              | [] -> loop acc
              | Message.Manager_error { seq = -1; _ } :: _ ->
                  (* The manager could not decode some request; we cannot
                     tell which, so every in-flight one is suspect. *)
                  fail t;
                  List.rev acc
              | Message.Manager_error { seq; message } :: rest -> (
                  match Hashtbl.find_opt t.outstanding seq with
                  | None -> consume rest acc (* stale duplicate *)
                  | Some tag ->
                      Hashtbl.remove t.outstanding seq;
                      t.n_manager_errors <- t.n_manager_errors + 1;
                      consume rest ((tag, Error (Manager message)) :: acc))
              | Message.Scenario_result r :: rest -> (
                  match Hashtbl.find_opt t.outstanding r.Message.seq with
                  | None -> consume rest acc (* stale duplicate *)
                  | Some tag ->
                      Hashtbl.remove t.outstanding r.Message.seq;
                      t.failures <- 0;
                      let result =
                        match
                          Message.outcome_of_report ~total_blocks:t.total_blocks r
                        with
                        | Ok outcome -> Ok outcome
                        | Error m -> Error (Protocol ("unusable report: " ^ m))
                      in
                      consume rest ((tag, result) :: acc))
            and loop acc =
              match l.tr.Transport.try_recv ~timeout_ms:0 with
              | Ok None -> List.rev acc
              | Error _ ->
                  fail t;
                  List.rev acc
              | Ok (Some payload) -> (
                  match Message.V2.decode_replies l.dec payload with
                  | Error _ ->
                      (* The frame passed its checksum but carries junk
                         (or lands on desynchronized dictionary state):
                         the stream can no longer be trusted. *)
                      fail t;
                      List.rev acc
                  | Ok msgs -> consume msgs acc)
            in
            loop [])

  let close t =
    (match t.state with
    | Connected l ->
        Message.V2.encode_shutdown l.out;
        ignore (l.tr.Transport.send (Buffer.contents l.out));
        retire t.acct l
    | Idle | Abandoned -> ());
    Hashtbl.iter (fun _ tag -> t.orphans <- tag :: t.orphans) t.outstanding;
    Hashtbl.reset t.outstanding;
    t.state <- Abandoned
end

(* ------------------------------------------------------------------ *)
(* Server loop                                                         *)
(* ------------------------------------------------------------------ *)

(* Frames carry several requests; every reply to one incoming frame
   coalesces into one outgoing frame (split only past [flush_bytes]), so
   syscalls scale with frames, not tests. Any decode error is
   connection-fatal by design — the per-connection dictionary and delta
   state can no longer be trusted, so the client must redial with fresh
   state rather than risk a silently wrong report. *)
let serve_requests manager (conn : Transport.t) =
  let sdec = Message.V2.server_dec () in
  let senc = Message.V2.server_enc () in
  let b = Buffer.create 1024 in
  let send_buf () =
    if Buffer.length b = 0 then Ok ()
    else begin
      let payload = Buffer.contents b in
      Buffer.clear b;
      conn.Transport.send payload
    end
  in
  let rec loop () =
    match conn.recv () with
    | Error Transport.Closed -> Ok ()
    | Error Transport.Timeout -> loop () (* idle client *)
    | Error e -> Error (Transport e)
    | Ok payload -> (
        match Message.V2.decode_requests sdec payload with
        | Error m ->
            Buffer.clear b;
            Message.V2.encode_reply senc b
              (Message.Manager_error { seq = -1; message = m });
            ignore (send_buf ());
            Error (Protocol m)
        | Ok msgs ->
            let rec run = function
              | [] -> (
                  match send_buf () with
                  | Ok () -> loop ()
                  | Error e -> Error (Transport e))
              | msg :: rest -> (
                  match Node_manager.handle manager msg with
                  | None ->
                      ignore (send_buf ());
                      Ok () (* shutdown *)
                  | Some (reply, _elapsed) ->
                      Message.V2.encode_reply senc b reply;
                      if Buffer.length b >= flush_bytes then (
                        match send_buf () with
                        | Ok () -> run rest
                        | Error e -> Error (Transport e))
                      else run rest)
            in
            run msgs)
  in
  loop ()

let serve_connection manager (conn : Transport.t) =
  let result =
    match conn.recv () with
    | Error e -> Error (Transport e)
    | Ok hello -> (
        match Message.decode_hello hello with
        | Error m ->
            ignore (conn.send (Message.encode_reject ~reason:m));
            Error (Protocol m)
        | Ok v when v <> Message.protocol_version ->
            let reason =
              Printf.sprintf
                "unsupported protocol version %d (this manager speaks only \
                 version %d)"
                v Message.protocol_version
            in
            ignore (conn.send (Message.encode_reject ~reason));
            Error (Protocol reason)
        | Ok v -> (
            match conn.send (Message.encode_welcome ~version:v) with
            | Error e -> Error (Transport e)
            | Ok () -> serve_requests manager conn))
  in
  conn.Transport.close ();
  result

let serve_tcp ?(host = "127.0.0.1") ?chaos_to_client ?(chaos_seed = 0) ~port
    ~once executor =
  match Transport.listen_tcp ~host ~port () with
  | Error e -> Error (Transport e)
  | Ok (listen_fd, actual_port) ->
      Printf.printf "afex-manager listening on %s:%d (protocol v%d)\n%!" host
        actual_port Message.protocol_version;
      let rec accept_loop id =
        let mangle =
          Option.map
            (fun c -> Transport.chaos_mangler ~rng:(Rng.create (chaos_seed + id)) c)
            chaos_to_client
        in
        match Transport.accept ?mangle listen_fd with
        | Error e ->
            (try Unix.close listen_fd with Unix.Unix_error _ -> ());
            Error (Transport e)
        | Ok conn -> (
            Log.info (fun m -> m "connection %d from %s" id conn.Transport.peer);
            let manager = Node_manager.create ~id ~executor () in
            let result = serve_connection manager conn in
            (match result with
            | Ok () ->
                Log.info (fun m ->
                    m "connection %d done: %d tests run" id
                      (Node_manager.tests_run manager))
            | Error e ->
                Log.warn (fun m -> m "connection %d failed: %s" id (string_of_error e)));
            if once then begin
              (try Unix.close listen_fd with Unix.Unix_error _ -> ());
              Ok ()
            end
            else accept_loop (id + 1))
      in
      accept_loop 0

(* ------------------------------------------------------------------ *)
(* In-process loopback                                                 *)
(* ------------------------------------------------------------------ *)

module Loopback = struct
  type server = {
    executor : Afex.Executor.t;
    name : string;
    chaos_to_server : Transport.chaos option;
    chaos_to_client : Transport.chaos option;
    chaos_seed : int;
    recv_timeout_ms : int option;
    lock : Mutex.t;
    mutable domains : unit Domain.t list;
    mutable next_id : int;
  }

  let create ?chaos_to_server ?chaos_to_client ?(chaos_seed = 0) ?recv_timeout_ms
      ?(name = "loopback") ~executor () =
    {
      executor;
      name;
      chaos_to_server;
      chaos_to_client;
      chaos_seed;
      recv_timeout_ms;
      lock = Mutex.create ();
      domains = [];
      next_id = 0;
    }

  (* Each connection gets its own RNG streams, so manglers are never
     shared across domains and chaos runs replay from the seed. *)
  let mangler chaos seed =
    Option.map
      (fun c -> Transport.chaos_mangler ~rng:(Rng.create seed) c)
      chaos

  let dial server () =
    Mutex.lock server.lock;
    let id = server.next_id in
    server.next_id <- id + 1;
    Mutex.unlock server.lock;
    let mangle_a = mangler server.chaos_to_server (server.chaos_seed + (2 * id)) in
    let mangle_b = mangler server.chaos_to_client (server.chaos_seed + (2 * id) + 1) in
    let client_end, server_end =
      Transport.pair ?recv_timeout_ms:server.recv_timeout_ms ?mangle_a ?mangle_b ()
    in
    let manager = Node_manager.create ~id ~executor:server.executor () in
    let d =
      Domain.spawn (fun () -> ignore (serve_connection manager server_end))
    in
    Mutex.lock server.lock;
    server.domains <- d :: server.domains;
    Mutex.unlock server.lock;
    Ok client_end

  let spec ?max_attempts ?backoff_ms server =
    spec ?max_attempts ?backoff_ms ~name:server.name (dial server)

  let connections server =
    Mutex.lock server.lock;
    let n = server.next_id in
    Mutex.unlock server.lock;
    n

  let shutdown server =
    Mutex.lock server.lock;
    let domains = server.domains in
    server.domains <- [];
    Mutex.unlock server.lock;
    List.iter Domain.join domains
end
