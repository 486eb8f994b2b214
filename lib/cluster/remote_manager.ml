module Rng = Afex_stats.Rng
module Scenario = Afex_faultspace.Scenario
module Outcome = Afex_injector.Outcome

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
  wire : int;
  flush_bytes : int;
}

let spec ?(max_attempts = 3) ?(backoff_ms = 50.0)
    ?(wire = Message.protocol_version_max) ?(flush_bytes = 8192) ~name dial =
  if max_attempts < 1 then invalid_arg "Remote_manager.spec: need at least one attempt";
  if wire < 1 || wire > Message.protocol_version_max then
    invalid_arg "Remote_manager.spec: unknown wire protocol version";
  if flush_bytes < 1 then invalid_arg "Remote_manager.spec: flush_bytes must be positive";
  { name; dial; max_attempts; backoff_ms; wire; flush_bytes }

let tcp_spec ?recv_timeout_ms ?max_attempts ?backoff_ms ?wire ?flush_bytes
    ~host ~port () =
  spec ?max_attempts ?backoff_ms ?wire ?flush_bytes
    ~name:(Printf.sprintf "%s:%d" host port)
    (fun () -> Transport.connect_tcp ?recv_timeout_ms ~host ~port ())

(* ------------------------------------------------------------------ *)
(* Negotiation and per-connection codec state                          *)
(* ------------------------------------------------------------------ *)

(* One negotiated connection plus everything whose lifetime is the
   connection's: the v2 scenario-delta encoder, the mirror stack-frame
   dictionary, and the outgoing coalescing buffer. A redial builds a
   fresh [live] — that is the defined dictionary reset on reconnect. *)
type live = {
  tr : Transport.t;
  version : int;
  enc : Message.V2.client_enc;
  dec : Message.V2.client_dec;
  out : Buffer.t;
}

let live tr version =
  {
    tr;
    version;
    enc = Message.V2.client_enc ();
    dec = Message.V2.client_dec ();
    out = Buffer.create 256;
  }

(* Wire accounting that outlives connections: each transport's own
   counters are folded in exactly once, when the connection retires. *)
type wire_acct = {
  mutable negotiated : int; (* most recent; 0 = never connected *)
  mutable downgrades : int;
  mutable frames_out : int;
  mutable frames_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
}

let wire_acct () =
  {
    negotiated = 0;
    downgrades = 0;
    frames_out = 0;
    frames_in = 0;
    bytes_out = 0;
    bytes_in = 0;
  }

let retire acct (l : live) =
  let c = l.tr.Transport.counters in
  acct.frames_out <- acct.frames_out + c.Transport.frames_out;
  acct.frames_in <- acct.frames_in + c.Transport.frames_in;
  acct.bytes_out <- acct.bytes_out + c.Transport.bytes_out;
  acct.bytes_in <- acct.bytes_in + c.Transport.bytes_in;
  l.tr.Transport.close ()

let hello (conn : Transport.t) version =
  match conn.send (Message.encode_hello ~version) with
  | Error e -> Error (`Err (Transport e))
  | Ok () -> (
      match conn.recv () with
      | Error e -> Error (`Err (Transport e))
      | Ok line -> (
          match Message.decode_greeting line with
          | Error m -> Error (`Err (Protocol m))
          | Ok (Message.Reject reason) -> Error (`Rejected reason)
          | Ok (Message.Welcome v) ->
              if v >= 1 && v <= version then Ok v
              else
                Error
                  (`Err
                    (Protocol
                       (Printf.sprintf
                          "manager welcomed version %d to an offer of %d" v
                          version)))))

(* Dial offering [pref]; a manager that rejects the offer gets one more
   dial offering v1. That is the whole downgrade story — the caller
   records the negotiated version as its next preference, so a v2
   client behind a v1-only manager pays the double dial once. *)
let dial_negotiate spec ~pref =
  let try_dial version =
    match spec.dial () with
    | Error e -> Error (`Err (Transport e))
    | Ok conn -> (
        match hello conn version with
        | Ok v -> Ok (conn, v)
        | Error e ->
            conn.Transport.close ();
            Error e)
  in
  let rejected reason = Protocol ("manager rejected the handshake: " ^ reason) in
  match try_dial pref with
  | Ok (conn, v) -> Ok (conn, v)
  | Error (`Rejected _) when pref > 1 -> (
      match try_dial 1 with
      | Ok (conn, v) -> Ok (conn, v)
      | Error (`Rejected reason) -> Error (rejected reason)
      | Error (`Err e) -> Error e)
  | Error (`Rejected reason) -> Error (rejected reason)
  | Error (`Err e) -> Error e

(* ------------------------------------------------------------------ *)
(* Client proxy                                                        *)
(* ------------------------------------------------------------------ *)

type stats = {
  requests : int;
  retries : int;
  dials : int;
  manager_errors : int;
  wire : int;
  wire_downgrades : int;
  frames_out : int;
  frames_in : int;
  bytes_out : int;
  bytes_in : int;
  dict_size : int;
}

let build_stats ~requests ~retries ~dials ~manager_errors (acct : wire_acct)
    live_opt =
  let frames_out, frames_in, bytes_out, bytes_in, dict_size =
    match live_opt with
    | None ->
        (acct.frames_out, acct.frames_in, acct.bytes_out, acct.bytes_in, 0)
    | Some l ->
        let c = l.tr.Transport.counters in
        ( acct.frames_out + c.Transport.frames_out,
          acct.frames_in + c.Transport.frames_in,
          acct.bytes_out + c.Transport.bytes_out,
          acct.bytes_in + c.Transport.bytes_in,
          Message.V2.client_dict_size l.dec )
  in
  {
    requests;
    retries;
    dials;
    manager_errors;
    wire = acct.negotiated;
    wire_downgrades = acct.downgrades;
    frames_out;
    frames_in;
    bytes_out;
    bytes_in;
    dict_size;
  }

type t = {
  spec : spec;
  total_blocks : int;
  mutable conn : live option;
  mutable pref : int;
  acct : wire_acct;
  mutable seq : int;
  mutable n_requests : int;
  mutable n_retries : int;
  mutable n_dials : int;
  mutable n_manager_errors : int;
}

let create spec ~total_blocks =
  {
    spec;
    total_blocks;
    conn = None;
    pref = spec.wire;
    acct = wire_acct ();
    seq = 0;
    n_requests = 0;
    n_retries = 0;
    n_dials = 0;
    n_manager_errors = 0;
  }

let stats t =
  build_stats ~requests:t.n_requests ~retries:t.n_retries ~dials:t.n_dials
    ~manager_errors:t.n_manager_errors t.acct t.conn

let name t = t.spec.name

let drop_conn t =
  match t.conn with
  | Some l ->
      retire t.acct l;
      t.conn <- None
  | None -> ()

let record_negotiated acct ~pref v =
  if v < pref then begin
    acct.downgrades <- acct.downgrades + 1;
    Log.info (fun m -> m "downgraded to wire protocol v%d (offered v%d)" v pref)
  end;
  acct.negotiated <- v

let connect t =
  t.n_dials <- t.n_dials + 1;
  match dial_negotiate t.spec ~pref:t.pref with
  | Ok (conn, v) ->
      record_negotiated t.acct ~pref:t.pref v;
      t.pref <- v;
      let l = live conn v in
      t.conn <- Some l;
      Ok l
  | Error e -> Error e

(* Exponential backoff schedule shared by the blocking client (which
   sleeps it on its dedicated proxy domain) and the pipelined client
   (which never sleeps: the async executor turns the same delay into a
   timer-wheel deadline, so other in-flight tests keep progressing). *)
let backoff_delay_ms spec attempt =
  if spec.backoff_ms <= 0.0 then 0.0
  else spec.backoff_ms *. (2.0 ** float_of_int (attempt - 1))

let backoff t attempt =
  let delay = backoff_delay_ms t.spec attempt in
  if delay > 0.0 then Unix.sleepf (delay /. 1000.0)

let send_request (l : live) ~seq scenario =
  if l.version >= 2 then begin
    Buffer.clear l.out;
    Message.V2.encode_request l.enc l.out ~seq scenario;
    l.tr.Transport.send (Buffer.contents l.out)
  end
  else
    l.tr.Transport.send
      (Message.encode_to_manager (Message.Run_scenario { seq; scenario }))

let recv_replies (l : live) =
  match l.tr.Transport.recv () with
  | Error e -> Error (Transport.string_of_error e)
  | Ok payload ->
      if l.version >= 2 then
        match Message.V2.decode_replies l.dec payload with
        | Error m -> Error ("undecodable reply: " ^ m)
        | Ok msgs -> Ok msgs
      else (
        match Message.decode_from_manager payload with
        | Error m -> Error ("undecodable reply: " ^ m)
        | Ok msg -> Ok [ msg ])

(* Read replies until the one matching [seq]: chaos can duplicate frames,
   so stale sequence numbers are skipped rather than fatal. *)
let await (l : live) seq =
  let rec scan = function
    | [] -> next ()
    | Message.Scenario_result r :: rest ->
        if r.Message.seq = seq then Ok (Message.Scenario_result r)
        else if r.Message.seq < seq then scan rest
        else Error (Printf.sprintf "reply for future sequence %d" r.Message.seq)
    | Message.Manager_error { seq = rseq; message } :: rest ->
        if rseq = seq then Ok (Message.Manager_error { seq = rseq; message })
        else if rseq = -1 then
          Error ("manager could not decode the request: " ^ message)
        else scan rest
  and next () =
    match recv_replies l with Error m -> Error m | Ok msgs -> scan msgs
  in
  next ()

let run_scenario t scenario =
  t.n_requests <- t.n_requests + 1;
  t.seq <- t.seq + 1;
  let seq = t.seq in
  let rec attempt n last =
    if n > t.spec.max_attempts then
      Error (Exhausted { attempts = t.spec.max_attempts; last })
    else begin
      if n > 1 then begin
        t.n_retries <- t.n_retries + 1;
        Log.debug (fun m ->
            m "%s: retry %d/%d after %s" t.spec.name n t.spec.max_attempts last);
        backoff t (n - 1)
      end;
      let conn =
        match t.conn with Some l -> Ok l | None -> connect t
      in
      match conn with
      | Error e ->
          drop_conn t;
          attempt (n + 1) (string_of_error e)
      | Ok l -> (
          match send_request l ~seq scenario with
          | Error e ->
              drop_conn t;
              attempt (n + 1) (Transport.string_of_error e)
          | Ok () -> (
              match await l seq with
              | Error m ->
                  drop_conn t;
                  attempt (n + 1) m
              | Ok (Message.Manager_error { message; _ }) ->
                  t.n_manager_errors <- t.n_manager_errors + 1;
                  Error (Manager message)
              | Ok (Message.Scenario_result r) -> (
                  match Message.outcome_of_report ~total_blocks:t.total_blocks r with
                  | Ok outcome -> Ok outcome
                  | Error m ->
                      drop_conn t;
                      attempt (n + 1) ("unusable report: " ^ m))))
    end
  in
  attempt 1 "never attempted"

let send_shutdown (l : live) =
  if l.version >= 2 then begin
    Message.V2.encode_shutdown l.out;
    let payload = Buffer.contents l.out in
    Buffer.clear l.out;
    ignore (l.tr.Transport.send payload)
  end
  else ignore (l.tr.Transport.send (Message.encode_to_manager Message.Shutdown))

let close t =
  (match t.conn with
  | Some l ->
      send_shutdown l;
      retire t.acct l
  | None -> ());
  t.conn <- None

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
    mutable pref : int;
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
      pref = spec.wire;
      acct = wire_acct ();
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
  let backoff_ms t = backoff_delay_ms t.spec (max 1 t.failures)
  let abandoned t = match t.state with Abandoned -> true | _ -> false

  let dispatchable t =
    match t.state with Abandoned -> false | Idle | Connected _ -> true

  let wait_fd t =
    match t.state with
    | Connected l -> l.tr.Transport.wait_fd ()
    | Idle | Abandoned -> None

  let stats t =
    let live_opt =
      match t.state with Connected l -> Some l | Idle | Abandoned -> None
    in
    build_stats ~requests:t.n_requests ~retries:t.n_retries ~dials:t.n_dials
      ~manager_errors:t.n_manager_errors t.acct live_opt

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
        match dial_negotiate t.spec ~pref:t.pref with
        | Ok (c, v) ->
            record_negotiated t.acct ~pref:t.pref v;
            t.pref <- v;
            let l = live c v in
            t.state <- Connected l;
            Ok l
        | Error e ->
            fail t;
            Error e)

  let flush_live t (l : live) =
    if Buffer.length l.out = 0 then Ok ()
    else begin
      let payload = Buffer.contents l.out in
      Buffer.clear l.out;
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
        if l.version >= 2 then begin
          (* Coalesce: the record lands in the connection buffer and the
             frame goes out when the buffer reaches [flush_bytes], when
             the in-flight credit is exhausted (nothing more is coming
             until replies arrive), or when the event loop is about to
             wait ({!flush}). *)
          Message.V2.encode_request l.enc l.out ~seq scenario;
          t.n_requests <- t.n_requests + 1;
          Hashtbl.replace t.outstanding seq tag;
          if Buffer.length l.out >= t.spec.flush_bytes || not (has_credit t)
          then (
            match flush_live t l with
            | Ok () -> Ok ()
            | Error e ->
                (* [fail] orphaned everything on the wire including this
                   request, but its failure is reported synchronously:
                   the caller owns this retry, not {!take_orphans}. *)
                t.orphans <- List.filter (fun tg -> tg <> tag) t.orphans;
                Error e)
          else Ok ()
        end
        else (
          let line =
            Message.encode_to_manager (Message.Run_scenario { seq; scenario })
          in
          match l.tr.Transport.send line with
          | Ok () ->
              t.n_requests <- t.n_requests + 1;
              Hashtbl.replace t.outstanding seq tag;
              Ok ()
          | Error e ->
              fail t;
              Error (Transport e))

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
            let decode payload =
              if l.version >= 2 then Message.V2.decode_replies l.dec payload
              else
                Result.map
                  (fun msg -> [ msg ])
                  (Message.decode_from_manager payload)
            in
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
                  match decode payload with
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
        send_shutdown l;
        retire t.acct l
    | Idle | Abandoned -> ());
    Hashtbl.iter (fun _ tag -> t.orphans <- tag :: t.orphans) t.outstanding;
    Hashtbl.reset t.outstanding;
    t.state <- Abandoned
end

(* ------------------------------------------------------------------ *)
(* Server loop                                                         *)
(* ------------------------------------------------------------------ *)

let serve_v1 manager (conn : Transport.t) =
  let rec loop () =
    match conn.recv () with
    | Error Transport.Closed -> Ok ()
    | Error Transport.Timeout -> loop () (* idle client *)
    | Error e -> Error (Transport e)
    | Ok line -> (
        match Message.decode_to_manager line with
        | Error m -> (
            match
              conn.send
                (Message.encode_from_manager
                   (Message.Manager_error { seq = -1; message = m }))
            with
            | Ok () -> loop ()
            | Error e -> Error (Transport e))
        | Ok msg -> (
            match Node_manager.handle manager msg with
            | None -> Ok () (* shutdown *)
            | Some (reply, _elapsed) -> (
                match conn.send (Message.encode_from_manager reply) with
                | Ok () -> loop ()
                | Error e -> Error (Transport e))))
  in
  loop ()

(* The v2 loop: frames carry several requests; every reply to one
   incoming frame coalesces into one outgoing frame (split only past
   [flush_bytes]), so syscalls scale with frames, not tests. Any decode
   error is connection-fatal by design — the per-connection dictionary
   and delta state can no longer be trusted, so the client must redial
   with fresh state rather than risk a silently wrong report. *)
let serve_v2 manager (conn : Transport.t) ~flush_bytes =
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

let serve_connection ?(wire_max = Message.protocol_version_max)
    ?(flush_bytes = 8192) manager (conn : Transport.t) =
  let result =
    match conn.recv () with
    | Error e -> Error (Transport e)
    | Ok hello -> (
        match Message.decode_hello hello with
        | Error m ->
            ignore (conn.send (Message.encode_reject ~reason:m));
            Error (Protocol m)
        | Ok v when v < 1 || v > wire_max ->
            let reason =
              Printf.sprintf "unsupported protocol version %d (manager speaks %d)"
                v wire_max
            in
            ignore (conn.send (Message.encode_reject ~reason));
            Error (Protocol reason)
        | Ok v -> (
            (* Welcome exactly the offered version: a v1 client never
               sees anything a v1 server would not have sent. *)
            match conn.send (Message.encode_welcome ~version:v) with
            | Error e -> Error (Transport e)
            | Ok () ->
                if v >= 2 then serve_v2 manager conn ~flush_bytes
                else serve_v1 manager conn))
  in
  conn.Transport.close ();
  result

let serve_tcp ?(host = "127.0.0.1") ?wire_max ?flush_bytes ?chaos_to_client
    ?(chaos_seed = 0) ~port ~once executor =
  match Transport.listen_tcp ~host ~port () with
  | Error e -> Error (Transport e)
  | Ok (listen_fd, actual_port) ->
      Printf.printf "afex-manager listening on %s:%d (protocol v%d)\n%!" host
        actual_port
        (Option.value wire_max ~default:Message.protocol_version_max);
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
            let result = serve_connection ?wire_max ?flush_bytes manager conn in
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
    wire_max : int;
    chaos_to_server : Transport.chaos option;
    chaos_to_client : Transport.chaos option;
    chaos_seed : int;
    recv_timeout_ms : int option;
    lock : Mutex.t;
    mutable domains : unit Domain.t list;
    mutable next_id : int;
  }

  let create ?(wire_max = Message.protocol_version_max) ?chaos_to_server
      ?chaos_to_client ?(chaos_seed = 0) ?recv_timeout_ms ?(name = "loopback")
      ~executor () =
    {
      executor;
      name;
      wire_max;
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
    let wire_max = server.wire_max in
    let d =
      Domain.spawn (fun () ->
          ignore (serve_connection ~wire_max manager server_end))
    in
    Mutex.lock server.lock;
    server.domains <- d :: server.domains;
    Mutex.unlock server.lock;
    Ok client_end

  let spec ?max_attempts ?backoff_ms ?wire ?flush_bytes server =
    spec ?max_attempts ?backoff_ms ?wire ?flush_bytes ~name:server.name
      (dial server)

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
