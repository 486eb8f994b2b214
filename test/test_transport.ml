(* Tests for the remote-dispatch stack: frame codec, socketpair transport,
   wire message codecs, the pipelined client/server pair, and the chaos
   (transport fault injection) harness — a fault-injection tool's own
   transport gets tested under injected faults. *)

module Transport = Afex_cluster.Transport
module Message = Afex_cluster.Message
module RM = Afex_cluster.Remote_manager
module Node_manager = Afex_cluster.Node_manager
module Pool = Afex_cluster.Pool
module Config = Afex.Config
module Session = Afex.Session
module Test_case = Afex.Test_case
module Point = Afex_faultspace.Point
module Scenario = Afex_faultspace.Scenario
module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome
module Bitset = Afex_stats.Bitset
module Rng = Afex_stats.Rng
module Apache = Afex_simtarget.Apache

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let get_ok label = function
  | Ok v -> v
  | Error _ -> Alcotest.failf "%s: unexpected Error" label

let is_error = function Error _ -> true | Ok _ -> false

(* Coverage as a decoder rebuilds it: the capacity ends at the highest
   block. *)
let bits_of_list blocks =
  let b = Bitset.create (List.fold_left (fun m i -> max m (i + 1)) 0 blocks) in
  List.iter (Bitset.set b) blocks;
  b

let list_of_bits b =
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) b;
  List.rev !acc

let executor () = Afex.Executor.of_target (Apache.target ())

(* Valid scenarios for the apache target, deterministically sampled. *)
let sample_scenarios n =
  let exec = executor () in
  let explorer =
    Afex.Explorer.create (Config.random_search ~seed:99 ()) (Apache.space ()) exec
  in
  List.init n (fun _ ->
      match Afex.Explorer.next explorer with
      | Some p -> Afex.Explorer.scenario_for explorer p
      | None -> Alcotest.fail "sample_scenarios: space exhausted")

let outcome_equal (a : Outcome.t) (b : Outcome.t) =
  Fault.equal a.Outcome.fault b.Outcome.fault
  && a.Outcome.status = b.Outcome.status
  && a.Outcome.triggered = b.Outcome.triggered
  && Bitset.equal a.Outcome.coverage b.Outcome.coverage
  && a.Outcome.injection_stack = b.Outcome.injection_stack
  && a.Outcome.crash_stack = b.Outcome.crash_stack
  && a.Outcome.duration_ms = b.Outcome.duration_ms

let history (r : Session.result) =
  List.map
    (fun (c : Test_case.t) ->
      (Point.key c.Test_case.point, Outcome.status_to_string c.Test_case.status,
       c.Test_case.fitness))
    r.Session.executed

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let pool_history ?remotes ?inflight ?request_timeout_ms ~jobs ~seed () =
  let exec = executor () in
  let result, stats =
    Pool.run ?remotes ?inflight ?request_timeout_ms ~jobs ~batch_size:16
      ~iterations:150
      (Config.fitness_guided ~seed ())
      (Apache.space ()) (Pool.Pure exec)
  in
  (history result, stats)

(* --- the frame codec --- *)

let decode_all bytes =
  let d = Transport.Frame.create () in
  Transport.Frame.feed d bytes;
  let rec go acc =
    match Transport.Frame.next d with
    | Ok (Some p) -> go (p :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error e -> Error e
  in
  go []

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      match decode_all (Transport.Frame.encode payload) with
      | Ok [ p ] -> checks "payload" payload p
      | Ok _ -> Alcotest.fail "expected exactly one frame"
      | Error e -> Alcotest.failf "decode: %s" (Transport.string_of_error e))
    [
      "";
      "x";
      "hello world\n";
      String.init 256 Char.chr;
      String.make 100_000 'A';
    ]

let test_frame_incremental () =
  (* One byte at a time: the decoder must tolerate any stream chunking. *)
  let payload = "RESULT 7 P T 0 0x1p-3 \xc3\xa9" in
  let bytes = Transport.Frame.encode payload in
  let d = Transport.Frame.create () in
  let got = ref None in
  String.iter
    (fun c ->
      Transport.Frame.feed d (String.make 1 c);
      match Transport.Frame.next d with
      | Ok (Some p) -> got := Some p
      | Ok None -> ()
      | Error e -> Alcotest.failf "decode: %s" (Transport.string_of_error e))
    bytes;
  checks "payload survives byte-wise delivery" payload
    (Option.value ~default:"<none>" !got);
  checki "nothing left over" 0 (Transport.Frame.pending d)

let test_frame_multiple_per_feed () =
  let payloads = [ "a"; ""; "third frame"; String.make 999 'z' ] in
  let bytes = String.concat "" (List.map Transport.Frame.encode payloads) in
  match decode_all bytes with
  | Ok got -> checkb "all frames decoded in order" true (got = payloads)
  | Error e -> Alcotest.failf "decode: %s" (Transport.string_of_error e)

let test_frame_bad_magic () =
  (match decode_all "XYZW garbage" with
  | Error (Transport.Corrupt _) -> ()
  | _ -> Alcotest.fail "garbage must be Corrupt");
  (* Right first byte, wrong second: still caught. *)
  let bytes = Transport.Frame.encode "ok" in
  let broken = Bytes.of_string bytes in
  Bytes.set broken 1 'Z';
  match decode_all (Bytes.to_string broken) with
  | Error (Transport.Corrupt _) -> ()
  | _ -> Alcotest.fail "bad second magic byte must be Corrupt"

let test_frame_oversized () =
  (* A garbage length prefix must fail fast, not trigger a huge read. *)
  let b = Buffer.create 16 in
  Buffer.add_string b "AF";
  Buffer.add_string b "\x7f\xff\xff\xff";
  Buffer.add_string b "\x00\x00\x00\x00";
  (match decode_all (Buffer.contents b) with
  | Error (Transport.Frame_too_large _) -> ()
  | _ -> Alcotest.fail "oversized declared length must be Frame_too_large");
  checkb "encode rejects oversized payloads" true
    (try
       ignore (Transport.Frame.encode (String.make (Transport.max_frame + 1) 'x'));
       false
     with Invalid_argument _ -> true);
  let a, b' = Transport.pair () in
  (match a.Transport.send (String.make (Transport.max_frame + 1) 'x') with
  | Error (Transport.Frame_too_large _) -> ()
  | _ -> Alcotest.fail "send of an oversized payload must be a typed error");
  a.Transport.close ();
  b'.Transport.close ()

let test_frame_checksum () =
  let bytes = Bytes.of_string (Transport.Frame.encode "checksummed payload") in
  (* Flip one payload bit. *)
  let i = Bytes.length bytes - 3 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 1));
  match decode_all (Bytes.to_string bytes) with
  | Error (Transport.Corrupt _) -> ()
  | _ -> Alcotest.fail "bit flip must be a checksum mismatch"

(* --- the socketpair transport --- *)

let test_pair_roundtrip () =
  let a, b = Transport.pair () in
  let messages =
    [ "plain"; ""; "newline\nin the middle"; "non-ASCII: r\xc3\xa9seau \xf0\x9f\x90\xab" ]
  in
  List.iter
    (fun m ->
      (match a.Transport.send m with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" (Transport.string_of_error e));
      checks "a -> b" m (get_ok "recv" (b.Transport.recv ())))
    messages;
  (match b.Transport.send "the other way" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" (Transport.string_of_error e));
  checks "b -> a" "the other way" (get_ok "recv" (a.Transport.recv ()));
  a.Transport.close ();
  b.Transport.close ()

let test_recv_timeout () =
  let a, b = Transport.pair ~recv_timeout_ms:30 () in
  (match a.Transport.recv () with
  | Error Transport.Timeout -> ()
  | _ -> Alcotest.fail "silent peer must be Timeout, not a hang");
  a.Transport.close ();
  b.Transport.close ()

let test_closed_and_truncated_peer () =
  let a, b = Transport.pair ~recv_timeout_ms:100 () in
  b.Transport.close ();
  (match a.Transport.recv () with
  | Error Transport.Closed -> ()
  | _ -> Alcotest.fail "orderly shutdown must be Closed");
  (match a.Transport.send "into the void" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "send to a closed peer must fail");
  a.Transport.close ();
  (match a.Transport.recv () with
  | Error Transport.Closed -> ()
  | _ -> Alcotest.fail "recv on a closed transport must be Closed");
  (* EOF in the middle of a frame is corruption, not a clean close. *)
  let a, b =
    Transport.pair ~recv_timeout_ms:100
      ~mangle_b:(fun frame -> [ String.sub frame 0 5 ])
      ()
  in
  (match b.Transport.send "will be cut short" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send: %s" (Transport.string_of_error e));
  b.Transport.close ();
  (match a.Transport.recv () with
  | Error (Transport.Corrupt _) -> ()
  | _ -> Alcotest.fail "EOF inside a frame must be Corrupt");
  a.Transport.close ()

let test_chaos_mangler_deterministic () =
  let frame = Transport.Frame.encode "some payload" in
  let chaos =
    {
      Transport.drop = 0.2;
      duplicate = 0.3;
      truncate = 0.2;
      bitflip = 0.3;
      garbage = 0.3;
    }
  in
  let stream seed =
    List.init 50 (fun _ ->
        Transport.chaos_mangler ~rng:(Rng.create seed) chaos frame)
    |> List.concat
  in
  checkb "same seed, same corruption" true (stream 7 = stream 7);
  checkb "identity under no_chaos" true
    (Transport.chaos_mangler ~rng:(Rng.create 1) Transport.no_chaos frame
    = [ frame ]);
  checkb "certain drop discards the frame" true
    (Transport.chaos_mangler ~rng:(Rng.create 1)
       { Transport.no_chaos with Transport.drop = 1.0 }
       frame
    = [])

(* --- handshake codec --- *)

let test_handshake_codec () =
  checkb "hello round-trips" true
    (Message.decode_hello (Message.encode_hello ~version:3) = Ok 3);
  checkb "welcome round-trips" true
    (Message.decode_greeting (Message.encode_welcome ~version:1)
    = Ok (Message.Welcome 1));
  List.iter
    (fun reason ->
      match Message.decode_greeting (Message.encode_reject ~reason) with
      | Ok (Message.Reject r) -> checks "reject reason survives" reason r
      | _ -> Alcotest.failf "reject %S must decode" reason)
    [ "v2 only\nsorry"; " spaced  out \n 100% raw "; "" ];
  List.iter
    (fun line ->
      checkb (Printf.sprintf "malformed hello %S" line) true
        (is_error (Message.decode_hello line)))
    [ ""; "HELLO"; "HELLO afex"; "HELLO afex x"; "HELLO smtp 1"; "RUN 1 a b" ];
  List.iter
    (fun line ->
      checkb (Printf.sprintf "malformed greeting %S" line) true
        (is_error (Message.decode_greeting line)))
    [ ""; "WELCOME"; "WELCOME afex nope"; "HELLO afex 1" ]

let test_serve_rejects_version_mismatch () =
  (* The handshake is a strict version check: every version but 2 is
     refused with a reason that names the one the manager speaks. *)
  List.iter
    (fun version ->
      let client, server = Transport.pair ~recv_timeout_ms:2000 () in
      let manager = Node_manager.create ~id:0 ~executor:(executor ()) () in
      let d = Domain.spawn (fun () -> RM.serve_connection manager server) in
      (match client.Transport.send (Message.encode_hello ~version) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "send: %s" (Transport.string_of_error e));
      (match Message.decode_greeting (get_ok "greeting" (client.Transport.recv ())) with
      | Ok (Message.Reject reason) ->
          checkb
            (Printf.sprintf "REJECT of v%d names version 2: %S" version reason)
            true (contains reason "version 2")
      | _ -> Alcotest.failf "protocol version %d must be rejected" version);
      client.Transport.close ();
      checkb
        (Printf.sprintf "server reported the protocol error for v%d" version)
        true
        (match Domain.join d with Error (RM.Protocol _) -> true | _ -> false))
    [ 1; 3; 999 ]

(* A dial whose far end has already greeted: the handshake completes (or
   fails) without a server domain. [open_ends] keeps the server ends
   alive until the test closes them. *)
let pregreeted_dial ~greeting open_ends () =
  let client, server = Transport.pair ~recv_timeout_ms:2000 () in
  ignore (server.Transport.send greeting);
  open_ends := server :: !open_ends;
  Ok client

let test_client_refuses_old_welcome () =
  let open_ends = ref [] in
  let greeting = Message.encode_welcome ~version:1 in
  let spec =
    RM.spec ~max_attempts:3 ~backoff_ms:0.1 ~name:"v1-manager"
      (pregreeted_dial ~greeting open_ends)
  in
  let conn = RM.Pipelined.create spec ~total_blocks:100 in
  let scenario = List.hd (sample_scenarios 1) in
  for attempt = 1 to 3 do
    checkb "submit fails" true
      (match RM.Pipelined.submit conn ~tag:attempt scenario with
      | Error (RM.Protocol _) -> true
      | Ok () | Error _ -> false);
    checki "a connection failure per dial" attempt (RM.Pipelined.failures conn)
  done;
  checkb "abandoned after max_attempts" true (RM.Pipelined.abandoned conn);
  checki "three dials" 3 (RM.Pipelined.stats conn).RM.dials;
  RM.Pipelined.close conn;
  (* Through the pool: every test falls back locally. *)
  let with_old, stats =
    pool_history
      ~remotes:
        [
          RM.spec ~max_attempts:2 ~backoff_ms:0.1 ~name:"v1-manager"
            (pregreeted_dial ~greeting open_ends);
        ]
      ~jobs:1 ~seed:41 ()
  in
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  List.iter (fun (tr : Transport.t) -> tr.Transport.close ()) !open_ends;
  checkb "history equals local" true (with_old = local);
  checki "nothing ran over the wire" 0 stats.Pool.remote_runs;
  checkb "tests fell back locally" true (stats.Pool.remote_fallbacks > 0)

(* --- random reports for the codec properties --- *)

let statuses = [| Outcome.Passed; Outcome.Test_failed; Outcome.Crashed; Outcome.Hung |]

let random_report rng =
  let funcs = [| "read"; "write"; "malloc"; "\xc3\xa9crire_r\xc3\xa9seau"; "select" |] in
  let errnos = [| "EIO"; "ENOMEM"; "EINTR" |] in
  let frames =
    [|
      "";
      "main (a.c:1)";
      "frame with spaces";
      "comma,separated,frame";
      "embedded\nnewline";
      "100% r\xc3\xa9seau";
      "tab\there";
    |]
  in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let stack () =
    match Rng.int rng 5 with
    | 0 -> None
    | 1 -> Some []
    | 2 -> Some [ "" ]
    | _ -> Some (List.init (1 + Rng.int rng 4) (fun _ -> pick frames))
  in
  {
    Message.seq = Rng.int rng 100_000;
    status = pick statuses;
    triggered = Rng.bernoulli rng 0.5;
    new_blocks = Rng.int rng 50;
    fault =
      Fault.make ~test_id:(Rng.int rng 50) ~func:(pick funcs)
        ~call_number:(Rng.int rng 6) ~errno:(pick errnos)
        ~retval:(Rng.int rng 3 - 1) ();
    coverage =
      bits_of_list (List.init (Rng.int rng 12) (fun _ -> Rng.int rng 400));
    injection_stack = stack ();
    crash_stack = stack ();
    duration_ms = (if Rng.bernoulli rng 0.1 then 0.0 else Rng.float rng 500.0);
  }

(* A failing codec bug used to print "case 73 of 200" and the full
   40-field report; the [Prop] harness shrinks to a minimal report (one
   field away from trivial) and prints the seed to replay it. *)
let report_arb =
  let trivial_fault =
    Fault.make ~test_id:0 ~func:"f" ~call_number:0 ~errno:"EIO" ~retval:0 ()
  in
  let shrink_stack r get set =
    match get r with
    | None -> []
    | Some [] -> [ set r None ]
    | Some (_ :: rest) -> [ set r None; set r (Some rest) ]
  in
  let shrink r =
    List.concat
      [
        (if r.Message.seq <> 0 then [ { r with Message.seq = 0 } ] else []);
        (if r.Message.status <> Outcome.Passed then
           [ { r with Message.status = Outcome.Passed } ]
         else []);
        (if r.Message.triggered then [ { r with Message.triggered = false } ]
         else []);
        (if r.Message.new_blocks <> 0 then [ { r with Message.new_blocks = 0 } ]
         else []);
        (if r.Message.duration_ms <> 0.0 then
           [ { r with Message.duration_ms = 0.0 } ]
         else []);
        (match list_of_bits r.Message.coverage with
        | [] -> []
        | _ :: rest ->
            [
              { r with Message.coverage = bits_of_list [] };
              { r with Message.coverage = bits_of_list rest };
            ]);
        shrink_stack r
          (fun r -> r.Message.injection_stack)
          (fun r s -> { r with Message.injection_stack = s });
        shrink_stack r
          (fun r -> r.Message.crash_stack)
          (fun r s -> { r with Message.crash_stack = s });
        (if r.Message.fault <> trivial_fault then
           [ { r with Message.fault = trivial_fault } ]
         else []);
      ]
  in
  let show (r : Message.run_report) =
    let stack = function
      | None -> "-"
      | Some frames -> Printf.sprintf "%S" (String.concat "|" frames)
    in
    Printf.sprintf "seq %d, %s%s, %d new, %h ms, %S, coverage [%s], %s, %s"
      r.seq
      (Outcome.status_to_string r.status)
      (if r.triggered then " (triggered)" else "")
      r.new_blocks r.duration_ms
      (Message.fault_to_string r.fault)
      (String.concat ";" (List.map string_of_int (list_of_bits r.coverage)))
      (stack r.injection_stack) (stack r.crash_stack)
  in
  Prop.make ~shrink ~show random_report

let test_outcome_report_roundtrip () =
  let exec = executor () in
  let total_blocks = exec.Afex.Executor.total_blocks in
  List.iter
    (fun scenario ->
      let outcome = exec.Afex.Executor.run_scenario scenario in
      let report = Message.report_of_outcome ~seq:1 outcome in
      match Message.outcome_of_report ~total_blocks report with
      | Ok rebuilt ->
          checkb "outcome rebuilt bit-for-bit" true (outcome_equal outcome rebuilt)
      | Error m -> Alcotest.failf "outcome_of_report: %s" m)
    (sample_scenarios 10);
  (* Coverage indices outside the explorer's bitset must not crash. *)
  let report =
    {
      (random_report (Rng.create 3)) with
      Message.coverage = bits_of_list [ 0; 99_999 ];
    }
  in
  checkb "out-of-range coverage is a typed error" true
    (is_error (Message.outcome_of_report ~total_blocks:100 report))

(* --- the pipelined client over the loopback --- *)

(* The event loop's duties towards one connection, minus its timer
   wheel: keep every unanswered scenario submitted, drain replies,
   resubmit orphans, and declare the connection dead once it has been
   silent for [stall_ms] (the loop's request timeout; generous by
   default, so a slow host never fails a clean wire). Returns each
   scenario's accepted result; a scenario still unanswered when the
   connection is abandoned stays [None]. *)
let pipelined_results ?(stall_ms = 2000.0) conn scenarios =
  let results = Array.map (fun _ -> None) scenarios in
  let on_wire = Array.map (fun _ -> false) scenarios in
  let forget () =
    List.iter (fun tag -> on_wire.(tag) <- false) (RM.Pipelined.take_orphans conn)
  in
  let deadline = Unix.gettimeofday () +. 20.0 in
  let last_progress = ref (Unix.gettimeofday ()) in
  while
    Array.exists Option.is_none results
    && (not (RM.Pipelined.abandoned conn))
    && Unix.gettimeofday () < deadline
  do
    Array.iteri
      (fun tag scenario ->
        if
          results.(tag) = None && (not on_wire.(tag))
          && RM.Pipelined.dispatchable conn && RM.Pipelined.has_credit conn
        then
          match RM.Pipelined.submit conn ~tag scenario with
          | Ok () -> on_wire.(tag) <- true
          | Error _ -> forget ())
      scenarios;
    let replies = RM.Pipelined.drain conn in
    List.iter
      (fun (tag, r) ->
        results.(tag) <- Some r;
        on_wire.(tag) <- false)
      replies;
    forget ();
    let now = Unix.gettimeofday () in
    if replies <> [] then last_progress := now
    else if now -. !last_progress > stall_ms /. 1000.0 then begin
      RM.Pipelined.fail conn;
      forget ();
      last_progress := now
    end
    else Unix.sleepf 0.0005
  done;
  results

let test_loopback_outcome_equality () =
  let exec = executor () in
  let lb = RM.Loopback.create ~executor:exec () in
  let conn =
    RM.Pipelined.create (RM.Loopback.spec lb)
      ~total_blocks:exec.Afex.Executor.total_blocks
  in
  let scenarios = Array.of_list (sample_scenarios 20) in
  Array.iteri
    (fun tag result ->
      let remote = get_ok "remote run" (Option.get result) in
      let local = exec.Afex.Executor.run_scenario scenarios.(tag) in
      checkb "remote outcome equals local outcome" true (outcome_equal remote local))
    (pipelined_results conn scenarios);
  let s = RM.Pipelined.stats conn in
  checki "20 requests" 20 s.RM.requests;
  checki "no retries on a clean wire" 0 s.RM.retries;
  checki "one dial" 1 s.RM.dials;
  checkb "frames and bytes were counted" true
    (s.RM.frames_out > 0 && s.RM.frames_in > 0 && s.RM.bytes_out > 0
   && s.RM.bytes_in > 0);
  RM.Pipelined.close conn;
  RM.Loopback.shutdown lb;
  checki "exactly one connection was made" 1 (RM.Loopback.connections lb)

let test_loopback_manager_error_not_retried () =
  let failing =
    Afex.Executor.of_scenario_fn ~total_blocks:10 ~description:"always fails"
      (fun _ -> invalid_arg "executor exploded")
  in
  let lb = RM.Loopback.create ~executor:failing () in
  let conn = RM.Pipelined.create (RM.Loopback.spec lb) ~total_blocks:10 in
  (match pipelined_results conn [| List.hd (sample_scenarios 1) |] with
  | [| Some (Error (RM.Manager m)) |] ->
      checkb "the manager's message survives" true (m = "executor exploded")
  | _ -> Alcotest.fail "a manager-side failure must surface as Manager");
  let s = RM.Pipelined.stats conn in
  checki "manager errors are deterministic: no retry" 0 s.RM.retries;
  checki "counted" 1 s.RM.manager_errors;
  RM.Pipelined.close conn;
  RM.Loopback.shutdown lb

(* --- chaos: the client under transport fault injection --- *)

let mild_chaos =
  {
    Transport.drop = 0.15;
    duplicate = 0.15;
    truncate = 0.05;
    bitflip = 0.1;
    garbage = 0.1;
  }

let run_under_chaos ~chaos_to_server ~chaos_to_client ~seed =
  let exec = executor () in
  let lb =
    RM.Loopback.create ?chaos_to_server ?chaos_to_client ~chaos_seed:seed
      ~recv_timeout_ms:40 ~executor:exec ()
  in
  (* One request per frame each way, so the chaos has 15 frames to hit
     in each direction rather than one coalesced frame. *)
  let conn =
    RM.Pipelined.create ~credit:1
      (RM.Loopback.spec ~max_attempts:20 ~backoff_ms:0.2 lb)
      ~total_blocks:exec.Afex.Executor.total_blocks
  in
  let scenarios = Array.of_list (sample_scenarios 15) in
  let accepted = ref 0 in
  Array.iteri
    (fun tag result ->
      match result with
      | None -> ()
      | Some r ->
          incr accepted;
          checkb "chaos never corrupts an accepted outcome" true
            (outcome_equal (get_ok "accepted outcome" r)
               (exec.Afex.Executor.run_scenario scenarios.(tag))))
    (pipelined_results ~stall_ms:50.0 conn scenarios);
  checkb "the connection was never written off" false
    (RM.Pipelined.abandoned conn);
  checki "every outcome made it through" 15 !accepted;
  let s = RM.Pipelined.stats conn in
  RM.Pipelined.close conn;
  RM.Loopback.shutdown lb;
  s

let test_chaos_on_requests () =
  let s =
    run_under_chaos
      ~chaos_to_server:(Some { mild_chaos with Transport.bitflip = 0.2 })
      ~chaos_to_client:None ~seed:11
  in
  checkb "corruption forced connection failures" true (s.RM.retries > 0);
  checkb "reconnects happened" true (s.RM.dials > 1)

let test_chaos_on_replies () =
  let s =
    run_under_chaos ~chaos_to_server:None
      ~chaos_to_client:(Some mild_chaos) ~seed:23
  in
  checkb "corrupted replies forced connection failures" true (s.RM.retries > 0)

let test_chaos_blackout_is_bounded () =
  (* Managers that deliver nothing: the pool must write each one off
     after its [max_attempts] connection failures and run every test
     locally — never hang, never fake an outcome. One wire drops every
     frame, so no handshake completes; one manager welcomes the client
     and then ignores every request, so request timeouts fire. *)
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  let check_leg name remote =
    let started = Unix.gettimeofday () in
    let h, stats =
      pool_history ~remotes:[ remote ] ~request_timeout_ms:20 ~jobs:1 ~seed:41 ()
    in
    checkb (name ^ ": the session finished promptly") true
      (Unix.gettimeofday () -. started < 10.0);
    checkb (name ^ ": history equals local") true (h = local);
    checkb (name ^ ": tests fell back locally") true
      (stats.Pool.remote_fallbacks > 0)
  in
  let exec = executor () in
  let lb =
    RM.Loopback.create
      ~chaos_to_server:{ Transport.no_chaos with Transport.drop = 1.0 }
      ~recv_timeout_ms:30 ~executor:exec ()
  in
  check_leg "dropped wire" (RM.Loopback.spec ~max_attempts:3 ~backoff_ms:0.2 lb);
  RM.Loopback.shutdown lb;
  checki "abandoned after max_attempts dials" 3 (RM.Loopback.connections lb);
  let open_ends = ref [] in
  let silent =
    RM.spec ~max_attempts:3 ~backoff_ms:0.2 ~name:"silent"
      (pregreeted_dial
         ~greeting:(Message.encode_welcome ~version:Message.protocol_version)
         open_ends)
  in
  check_leg "silent manager" silent;
  checki "abandoned after max_attempts dials" 3 (List.length !open_ends);
  List.iter (fun (tr : Transport.t) -> tr.Transport.close ()) !open_ends

(* --- the pool with remote workers --- *)

let test_pool_remote_only_matches_local () =
  let exec = executor () in
  let lb = RM.Loopback.create ~executor:exec () in
  let remote, stats =
    pool_history ~remotes:[ RM.Loopback.spec lb ] ~jobs:0 ~seed:41 ()
  in
  RM.Loopback.shutdown lb;
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  checkb "remote-only history equals in-process history" true (remote = local);
  checkb "everything went over the wire" true (stats.Pool.remote_runs > 0);
  checki "no fallbacks on a clean wire" 0 stats.Pool.remote_fallbacks

let test_pool_mixed_matches_local () =
  let exec = executor () in
  let lb1 = RM.Loopback.create ~name:"lb1" ~executor:exec () in
  let lb2 = RM.Loopback.create ~name:"lb2" ~executor:exec () in
  let mixed, stats =
    pool_history
      ~remotes:[ RM.Loopback.spec lb1; RM.Loopback.spec lb2 ]
      ~inflight:4 ~jobs:1 ~seed:41 ()
  in
  RM.Loopback.shutdown lb1;
  RM.Loopback.shutdown lb2;
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  checkb "two-manager history equals in-process history" true (mixed = local);
  checkb "remotes participated" true (stats.Pool.remote_runs > 0)

(* Wraps [spec] so each connection it dials counts the requests riding
   on it (requests sent minus replies received, read through a private
   codec pair that sees exactly the client's frames); [peak] keeps the
   maximum over all connections. *)
let holding_spec (spec : RM.spec) peak =
  let dial () =
    match spec.RM.dial () with
    | Error _ as e -> e
    | Ok (tr : Transport.t) ->
        let held = ref 0 and hello = ref true and greeting = ref true in
        let sdec = Message.V2.server_dec () and cdec = Message.V2.client_dec () in
        let sent payload =
          if !hello then hello := false
          else
            List.iter
              (function
                | Message.Run_scenario _ ->
                    incr held;
                    peak := max !peak !held
                | Message.Shutdown -> ())
              (get_ok "request frame" (Message.V2.decode_requests sdec payload))
        in
        let received payload =
          if !greeting then greeting := false
          else
            held :=
              !held
              - List.length
                  (get_ok "reply frame" (Message.V2.decode_replies cdec payload))
        in
        let send payload =
          let r = tr.Transport.send payload in
          if r = Ok () then sent payload;
          r
        in
        let recv () =
          let r = tr.Transport.recv () in
          (match r with Ok p -> received p | Error _ -> ());
          r
        in
        let try_recv ~timeout_ms =
          let r = tr.Transport.try_recv ~timeout_ms in
          (match r with Ok (Some p) -> received p | Ok None | Error _ -> ());
          r
        in
        Ok { tr with Transport.send; recv; try_recv }
  in
  { spec with RM.dial }

let test_pool_one_request_per_manager () =
  (* At the default inflight each manager holds one request at a time:
     while the slow manager works on its test, the fast one takes the
     others instead of the slow one queueing a second. *)
  let exec = executor () in
  let slow_exec =
    Afex.Executor.sync_of_async
      (Afex.Executor.delayed ~delay_ms:(fun _ -> 10.0) exec)
  in
  let fast = RM.Loopback.create ~name:"fast" ~executor:exec () in
  let slow = RM.Loopback.create ~name:"slow" ~executor:slow_exec () in
  let fast_peak = ref 0 and slow_peak = ref 0 in
  let h, stats =
    pool_history
      ~remotes:
        [
          holding_spec (RM.Loopback.spec fast) fast_peak;
          holding_spec (RM.Loopback.spec slow) slow_peak;
        ]
      ~jobs:0 ~seed:41 ()
  in
  RM.Loopback.shutdown fast;
  RM.Loopback.shutdown slow;
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  checkb "two-manager history equals in-process history" true (h = local);
  checki "the fast manager held one request at a time" 1 !fast_peak;
  checki "the slow manager held one request at a time" 1 !slow_peak;
  checki "no test ran locally" 0 stats.Pool.remote_fallbacks

let test_pool_chaotic_remote_matches_local () =
  let exec = executor () in
  let lb =
    RM.Loopback.create ~chaos_to_server:mild_chaos ~chaos_to_client:mild_chaos
      ~chaos_seed:17 ~recv_timeout_ms:40 ~executor:exec ()
  in
  let chaotic, _ =
    pool_history
      ~remotes:[ RM.Loopback.spec ~max_attempts:8 ~backoff_ms:0.2 lb ]
      ~request_timeout_ms:40 ~jobs:1 ~seed:41 ()
  in
  RM.Loopback.shutdown lb;
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  checkb "a byzantine wire cannot change the explored history" true
    (chaotic = local)

let test_pool_dead_remote_falls_back () =
  let dead =
    RM.spec ~max_attempts:2 ~backoff_ms:0.1 ~name:"unreachable" (fun () ->
        Error (Transport.Io "connection refused"))
  in
  let with_dead, stats = pool_history ~remotes:[ dead ] ~jobs:1 ~seed:41 () in
  let local, _ = pool_history ~jobs:1 ~seed:41 () in
  checkb "every scenario was recovered locally" true (with_dead = local);
  checki "nothing ran over the wire" 0 stats.Pool.remote_runs;
  checkb "the fallback path was exercised" true (stats.Pool.remote_fallbacks > 0)

let test_pool_rejects_bad_worker_mix () =
  let exec () = Pool.Pure (executor ()) in
  checkb "negative jobs rejected" true
    (try ignore (Pool.create ~jobs:(-1) (exec ())); false
     with Invalid_argument _ -> true);
  checkb "zero workers rejected" true
    (try ignore (Pool.create ~jobs:0 (exec ())); false
     with Invalid_argument _ -> true);
  let lb = RM.Loopback.create ~executor:(executor ()) () in
  let pool = Pool.create ~remotes:[ RM.Loopback.spec lb ] ~jobs:0 (exec ()) in
  checki "jobs 0 with a remote is a valid pool" 0 (Pool.jobs pool);
  Pool.shutdown pool;
  checkb "remotes with jobs > 1 rejected" true
    (try
       ignore (Pool.create ~remotes:[ RM.Loopback.spec lb ] ~jobs:2 (exec ()));
       false
     with Invalid_argument _ -> true);
  RM.Loopback.shutdown lb

(* --- wire protocol v2: varints and stateful codecs --- *)

module V2 = Message.V2

let test_varint_properties () =
  let roundtrip add read n =
    let b = Buffer.create 10 in
    add b n;
    let c = { Message.data = Buffer.contents b; pos = 0 } in
    read c = Ok n && Message.remaining c = 0
  in
  let roundtrip_uv = roundtrip Message.add_uv Message.read_uv in
  let roundtrip_sv = roundtrip Message.add_sv Message.read_sv in
  (* Every byte-length boundary by hand, then random magnitudes. *)
  List.iter
    (fun n -> checkb (Printf.sprintf "uv %d round-trips" n) true (roundtrip_uv n))
    [ 0; 1; 127; 128; 16_383; 16_384; 0x7FFF_FFFF; max_int ];
  List.iter
    (fun n -> checkb (Printf.sprintf "sv %d round-trips" n) true (roundtrip_sv n))
    [ 0; 1; -1; 63; -64; 64; 12_345; -12_345; max_int; min_int ];
  let any_int =
    Prop.make
      ~shrink:(fun n -> if n = 0 then [] else [ 0; n / 2 ])
      ~show:string_of_int
      (fun rng ->
        let v = Rng.int rng (1 lsl Rng.int rng 62) in
        if Rng.bernoulli rng 0.5 then -v - 1 else v)
  in
  Prop.check ~count:300 ~seed:7 "unsigned varint round-trip" any_int (fun n ->
      roundtrip_uv (abs n));
  Prop.check ~count:300 ~seed:8 "signed varint round-trip" any_int roundtrip_sv;
  (* Totality: truncation, overflow, and the encoder's domain. *)
  let read_uv data = Message.read_uv { Message.data; pos = 0 } in
  checkb "truncated varint is an error" true (is_error (read_uv "\x80"));
  checkb "empty input is an error" true (is_error (read_uv ""));
  checkb "overflowing varint is an error" true
    (is_error (read_uv (String.make 10 '\xff')));
  checkb "negative unsigned encode is rejected" true
    (try
       Message.add_uv (Buffer.create 4) (-1);
       false
     with Invalid_argument _ -> true)

let test_v2_request_codec () =
  (* Coalescing: many requests plus a shutdown in one frame payload,
     decoded in order with scenarios intact. *)
  let scenarios = sample_scenarios 8 in
  let enc = V2.client_enc () in
  let b = Buffer.create 512 in
  List.iteri (fun i s -> V2.encode_request enc b ~seq:i s) scenarios;
  V2.encode_shutdown b;
  (match V2.decode_requests (V2.server_dec ()) (Buffer.contents b) with
  | Error m -> Alcotest.failf "decode_requests: %s" m
  | Ok msgs ->
      checki "8 requests + shutdown" 9 (List.length msgs);
      List.iteri
        (fun i msg ->
          match msg with
          | Message.Run_scenario r when i < 8 ->
              checki "seq" i r.seq;
              checks "scenario"
                (Scenario.to_string (List.nth scenarios i))
                (Scenario.to_string r.scenario)
          | Message.Shutdown when i = 8 -> ()
          | _ -> Alcotest.failf "record %d decoded to the wrong message" i)
        msgs);
  (* Delta-encoding: the second send of a scenario rides the delta path
     and is strictly smaller than the first full send. *)
  let s = List.hd scenarios in
  let enc2 = V2.client_enc () in
  let b_full = Buffer.create 64 in
  V2.encode_request enc2 b_full ~seq:0 s;
  let b_delta = Buffer.create 64 in
  V2.encode_request enc2 b_delta ~seq:1 s;
  checkb "delta record is smaller than the full record" true
    (Buffer.length b_delta < Buffer.length b_full);
  let dec = V2.server_dec () in
  (match V2.decode_requests dec (Buffer.contents b_full) with
  | Ok [ Message.Run_scenario r ] ->
      checks "full scenario" (Scenario.to_string s) (Scenario.to_string r.scenario)
  | _ -> Alcotest.fail "full request must decode");
  (match V2.decode_requests dec (Buffer.contents b_delta) with
  | Ok [ Message.Run_scenario r ] ->
      checks "delta reconstructs the scenario" (Scenario.to_string s)
        (Scenario.to_string r.scenario)
  | _ -> Alcotest.fail "delta request must decode");
  (* A duplicated frame (chaos) replays a stale generation: skipped
     silently, never re-run and never fatal. *)
  (match V2.decode_requests dec (Buffer.contents b_full) with
  | Ok [] -> ()
  | _ -> Alcotest.fail "stale generation must be skipped, not re-run");
  (* A dropped frame leaves a generation gap: connection-fatal. *)
  checkb "generation gap is an error" true
    (is_error (V2.decode_requests (V2.server_dec ()) (Buffer.contents b_delta)));
  (* A corrupted scenario checksum (the record's last varint) is caught. *)
  let corrupt = Bytes.of_string (Buffer.contents b_full) in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 0x01));
  checkb "checksum mismatch is an error" true
    (is_error (V2.decode_requests (V2.server_dec ()) (Bytes.to_string corrupt)));
  checkb "negative seq is rejected at encode time" true
    (try
       V2.encode_request (V2.client_enc ()) (Buffer.create 16) ~seq:(-1) s;
       false
     with Invalid_argument _ -> true)

let test_v2_reply_roundtrip_property () =
  Prop.check ~count:150 ~seed:2027 "v2 reply round-trip" report_arb (fun r ->
      let senc = V2.server_enc () in
      let cdec = V2.client_dec () in
      let b = Buffer.create 256 in
      V2.encode_reply senc b (Message.Scenario_result r);
      match V2.decode_replies cdec (Buffer.contents b) with
      | Ok [ Message.Scenario_result r' ] -> r' = r
      | _ -> false);
  (* Coverage shapes by hand: empty, the first and a far block,
     contiguous runs, and strays. *)
  let base = random_report (Rng.create 5) in
  List.iter
    (fun coverage ->
      let b = Buffer.create 256 in
      V2.encode_reply (V2.server_enc ()) b
        (Message.Scenario_result
           { base with Message.coverage = bits_of_list coverage });
      match V2.decode_replies (V2.client_dec ()) (Buffer.contents b) with
      | Ok [ Message.Scenario_result r ] ->
          checkb "coverage round-trips" true
            (list_of_bits r.Message.coverage = coverage)
      | _ -> Alcotest.fail "coverage variant did not decode")
    [
      [];
      [ 0 ];
      [ 399 ];
      [ 0; 1; 2; 3; 4 ];
      [ 7; 9; 11 ];
      [ 0; 1; 2; 50; 51; 52; 53; 400 ];
    ];
  List.iter
    (fun (seq, message) ->
      let b = Buffer.create 64 in
      V2.encode_reply (V2.server_enc ()) b
        (Message.Manager_error { seq; message });
      match V2.decode_replies (V2.client_dec ()) (Buffer.contents b) with
      | Ok [ Message.Manager_error { seq = seq'; message = message' } ] ->
          checki "error seq" seq seq';
          checks "error message" message message'
      | _ -> Alcotest.failf "manager error %S did not round-trip" message)
    [
      (1, "plain failure");
      (-1, "undecodable");
      (7, "");
      (3, "multi\nline");
      (4, "r\xc3\xa9seau d\xc3\xa9connect\xc3\xa9 100%");
    ]

let test_v2_dict_interning () =
  (* One connection's worth of codec state: the first report announces
     its stack frames in a DICT record; repeats ship bare int ids. *)
  let r =
    {
      (random_report (Rng.create 9)) with
      Message.injection_stack = Some [ "alpha"; "beta" ];
      crash_stack = Some [ "beta"; "gamma" ];
    }
  in
  let senc = V2.server_enc () in
  let cdec = V2.client_dec () in
  let encode_once () =
    let b = Buffer.create 128 in
    V2.encode_reply senc b (Message.Scenario_result r);
    Buffer.contents b
  in
  let first = encode_once () in
  let second = encode_once () in
  checkb "steady-state reply is smaller (no DICT re-announcement)" true
    (String.length second < String.length first);
  List.iter
    (fun payload ->
      match V2.decode_replies cdec payload with
      | Ok [ Message.Scenario_result r' ] ->
          checkb "report survives interning" true (r' = r)
      | _ -> Alcotest.fail "interned reply must decode")
    [ first; second ];
  (* 3 unique stack frames + the fault descriptor. *)
  checki "server interned 4 unique strings" 4 (V2.server_dict_size senc);
  checki "client mirrors the dictionary" 4 (V2.client_dict_size cdec)

let test_v2_desync_is_error () =
  let report stack =
    {
      (random_report (Rng.create 9)) with
      Message.injection_stack = Some stack;
      crash_stack = None;
    }
  in
  let encode senc stack =
    let b = Buffer.create 128 in
    V2.encode_reply senc b (Message.Scenario_result (report stack));
    Buffer.contents b
  in
  (* Dropped DICT frame: the next announcement's base id leaves a gap. *)
  let senc = V2.server_enc () in
  let b1 = encode senc [ "a" ] in
  let b2 = encode senc [ "a"; "new-frame" ] in
  checkb "dictionary gap is an error" true
    (is_error (V2.decode_replies (V2.client_dec ()) b2));
  (* Steady-state reply (ids only, no DICT) hitting a fresh decoder:
     unknown id, not a silently wrong stack. *)
  let b3 = encode senc [ "a" ] in
  checkb "unknown stack-frame id is an error" true
    (is_error (V2.decode_replies (V2.client_dec ()) b3));
  (* Conflicting redefinition: a DICT record from a different connection
     claiming an id the decoder already holds. *)
  let cdec = V2.client_dec () in
  (match V2.decode_replies cdec b1 with
  | Ok [ _ ] -> ()
  | _ -> Alcotest.fail "first reply must decode");
  let b_conflict = encode (V2.server_enc ()) [ "zzz" ] in
  checkb "conflicting redefinition is an error" true
    (is_error (V2.decode_replies cdec b_conflict));
  (* A duplicated reply frame redefines its entries identically: a
     no-op for the dictionary, and the stale result is the caller's
     (sequence-matching) problem — never a decode error. *)
  let cdec2 = V2.client_dec () in
  (match (V2.decode_replies cdec2 b1, V2.decode_replies cdec2 b1) with
  | Ok [ _ ], Ok [ _ ] -> ()
  | _ -> Alcotest.fail "a duplicated reply frame must decode cleanly");
  (* The fault descriptor and one stack frame, interned exactly once. *)
  checki "duplicate DICT did not grow the dictionary" 2
    (V2.client_dict_size cdec2)

(* --- every wire decoder is total --- *)

(* Valid payloads for the mutation half of the property: both handshake
   lines, a request frame (a full record, then a delta record), a reply
   frame (DICT, RESULT and ERROR records) and one framed stream. *)
let wire_corpus () =
  let scenarios = sample_scenarios 3 in
  let requests =
    let b = Buffer.create 256 in
    let enc = V2.client_enc () in
    List.iteri (fun seq s -> V2.encode_request enc b ~seq s) scenarios;
    V2.encode_shutdown b;
    Buffer.contents b
  in
  let replies =
    let b = Buffer.create 256 in
    let enc = V2.server_enc () in
    List.iter
      (fun i ->
        V2.encode_reply enc b (Message.Scenario_result (random_report (Rng.create i))))
      [ 1; 2 ];
    V2.encode_reply enc b (Message.Manager_error { seq = 3; message = "boom" });
    Buffer.contents b
  in
  [|
    Message.encode_hello ~version:Message.protocol_version;
    Message.encode_welcome ~version:Message.protocol_version;
    Message.encode_reject ~reason:"unsupported protocol version 1";
    requests;
    replies;
    Transport.Frame.encode requests ^ Transport.Frame.encode replies;
  |]

(* Codec state after one valid frame: a delta base on the server side, a
   populated dictionary on the client side. *)
let warm_server_dec () =
  let dec = V2.server_dec () in
  let b = Buffer.create 128 in
  V2.encode_request (V2.client_enc ()) b ~seq:0 (List.hd (sample_scenarios 1));
  ignore (V2.decode_requests dec (Buffer.contents b));
  dec

let warm_client_dec () =
  let dec = V2.client_dec () in
  let b = Buffer.create 128 in
  V2.encode_reply (V2.server_enc ()) b
    (Message.Scenario_result (random_report (Rng.create 9)));
  ignore (V2.decode_replies dec (Buffer.contents b));
  dec

let frame_total prefix bytes =
  let d = Transport.Frame.create () in
  Transport.Frame.feed d prefix;
  Transport.Frame.feed d bytes;
  let rec drain () =
    match Transport.Frame.next d with
    | Ok (Some _) -> drain ()
    | Ok None | Error _ -> true
  in
  drain ()

(* A reply frame whose one report carries the given coverage runs
   ([gap], [length - 1]) — shapes a valid encoder never produces. *)
let reply_with_coverage runs =
  let b = Buffer.create 64 in
  let uv = Message.add_uv b in
  let fault =
    Scenario.to_string
      (Fault.to_scenario (Fault.make ~test_id:0 ~func:"read" ~call_number:1 ()))
  in
  (* DICT: base 0, one entry, the fault. *)
  Buffer.add_char b '\x03';
  uv 0;
  uv 1;
  uv (String.length fault);
  Buffer.add_string b fault;
  (* RESULT: seq 1, passed, 0 new blocks, 0.0 ms, fault id 0. *)
  Buffer.add_char b '\x04';
  uv 1;
  Buffer.add_char b '\x00';
  uv 0;
  Buffer.add_string b (String.make 8 '\x00');
  uv 0;
  uv (List.length runs);
  List.iter
    (fun (gap, len1) ->
      uv gap;
      uv len1)
    runs;
  (* No stacks. *)
  Buffer.add_string b "\x00\x00";
  Buffer.contents b

let test_wire_decoders_total () =
  (* Two holes the property cannot reach by chance, found by reading
     the coverage decoder: a run ending at [max_int] looped forever,
     and about a kilobyte of runs could demand hundreds of millions of
     list cells. *)
  let coverage runs =
    match V2.decode_replies (V2.client_dec ()) (reply_with_coverage runs) with
    | Ok [ Message.Scenario_result r ] -> Ok (list_of_bits r.Message.coverage)
    | Ok _ -> Error "wrong records"
    | Error m -> Error m
  in
  checkb "a well-formed run decodes" true (coverage [ (3, 2) ] = Ok [ 3; 4; 5 ]);
  checkb "a run ending at max_int is an error" true
    (is_error (coverage [ (max_int - 1, 1) ]));
  checkb "a run past max_int is an error" true
    (is_error (coverage [ (0, 0); (max_int - 1, 0) ]));
  checkb "runs beyond max_line blocks in total are an error" true
    (is_error (coverage (List.init 300 (fun _ -> (0, 600_000)))));
  let corpus = wire_corpus () in
  let bytes_arb =
    Prop.make
      ~shrink:(fun s ->
        let n = String.length s in
        if n = 0 then []
        else [ String.sub s 0 (n / 2); String.sub s 1 (n - 1); String.sub s 0 (n - 1) ])
      ~show:(Printf.sprintf "%S")
      (fun rng ->
        if Rng.bernoulli rng 0.3 then
          String.init (Rng.int rng 64) (fun _ -> Char.chr (Rng.int rng 256))
        else begin
          (* One byte of a valid payload replaced by a random one. *)
          let b = Bytes.of_string corpus.(Rng.int rng (Array.length corpus)) in
          Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256));
          Bytes.to_string b
        end)
  in
  let total f x = match f x with Ok _ | Error _ -> true in
  let partial_frame = String.sub (Transport.Frame.encode "payload") 0 5 in
  Prop.check ~count:3000 ~seed:2028 "wire decoders are total" bytes_arb (fun s ->
      total Message.decode_hello s
      && total Message.decode_greeting s
      && total (V2.decode_requests (V2.server_dec ())) s
      && total (V2.decode_requests (warm_server_dec ())) s
      && total (V2.decode_replies (V2.client_dec ())) s
      && total (V2.decode_replies (warm_client_dec ())) s
      && frame_total "" s
      && frame_total partial_frame s)

let test_decoder_chunk_granularity () =
  (* The frame decoder fed text (handshake lines) and binary frames at
     every chunk granularity 1-7 bytes — chunks landing mid-header,
     mid-payload and across frame boundaries — must produce identical
     results. The first three payloads are not replies. *)
  let other_payloads =
    [
      Message.encode_hello ~version:Message.protocol_version;
      (let b = Buffer.create 1 in
       V2.encode_shutdown b;
       Buffer.contents b);
      Message.encode_reject ~reason:"unsupported protocol version 1\nbye";
    ]
  in
  let senc = V2.server_enc () in
  let v2_payload i =
    let b = Buffer.create 128 in
    V2.encode_reply senc b (Message.Scenario_result (random_report (Rng.create i)));
    Buffer.contents b
  in
  let payloads = other_payloads @ List.map v2_payload [ 3; 4; 5 ] in
  let stream = String.concat "" (List.map Transport.Frame.encode payloads) in
  let reference = get_ok "whole-stream decode" (decode_all stream) in
  checkb "whole-stream decode returns the inputs" true (reference = payloads);
  let decode_v2_tail ps =
    (* The v2 payloads decoded with fresh per-"connection" codec state. *)
    let cdec = V2.client_dec () in
    List.concat_map
      (fun p -> get_ok "v2 payload decode" (V2.decode_replies cdec p))
      (List.filteri (fun i _ -> i >= List.length other_payloads) ps)
  in
  let reference_replies = decode_v2_tail reference in
  checki "three v2 replies in the stream" 3 (List.length reference_replies);
  for k = 1 to 7 do
    let d = Transport.Frame.create () in
    let acc = ref [] in
    let n = String.length stream in
    let pos = ref 0 in
    while !pos < n do
      let len = min k (n - !pos) in
      Transport.Frame.feed d (String.sub stream !pos len);
      pos := !pos + len;
      let rec drain_frames () =
        match Transport.Frame.next d with
        | Ok (Some p) ->
            acc := p :: !acc;
            drain_frames ()
        | Ok None -> ()
        | Error e ->
            Alcotest.failf "chunk %d: %s" k (Transport.string_of_error e)
      in
      drain_frames ()
    done;
    let got = List.rev !acc in
    checkb (Printf.sprintf "chunk granularity %d matches whole-stream" k) true
      (got = reference);
    checkb
      (Printf.sprintf "v2 replies identical at granularity %d" k)
      true
      (decode_v2_tail got = reference_replies)
  done

let test_pipelined_coalescing () =
  (* Several submits under the default 8 KiB flush threshold sit in the
     coalescing buffer, then travel as ONE frame: handshake + batch =
     exactly two frames out, against six requests. *)
  let exec = executor () in
  let total_blocks = exec.Afex.Executor.total_blocks in
  let lb = RM.Loopback.create ~executor:exec () in
  let conn = RM.Pipelined.create (RM.Loopback.spec lb) ~total_blocks in
  let scenarios = Array.of_list (sample_scenarios 6) in
  Array.iteri
    (fun i s ->
      match RM.Pipelined.submit conn ~tag:i s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "submit: %s" (RM.string_of_error e))
    scenarios;
  checkb "requests coalesce in the buffer" true (RM.Pipelined.buffered conn > 0);
  checki "all six pending" 6 (RM.Pipelined.pending conn);
  (match RM.Pipelined.flush conn with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flush: %s" (RM.string_of_error e));
  checki "flush drained the buffer" 0 (RM.Pipelined.buffered conn);
  let deadline = Unix.gettimeofday () +. 10.0 in
  let results = ref [] in
  while List.length !results < 6 && Unix.gettimeofday () < deadline do
    match RM.Pipelined.drain conn with
    | [] -> Unix.sleepf 0.002
    | rs -> results := rs @ !results
  done;
  checki "all six answered" 6 (List.length !results);
  checkb "no orphans on a clean wire" true (RM.Pipelined.take_orphans conn = []);
  List.iter
    (fun (tag, r) ->
      let outcome = get_ok "pipelined outcome" r in
      checkb "pipelined outcome equals local" true
        (outcome_equal outcome
           (exec.Afex.Executor.run_scenario scenarios.(tag))))
    !results;
  let s = RM.Pipelined.stats conn in
  checki "six requests" 6 s.RM.requests;
  checki "exactly two frames out: HELLO + one coalesced batch" 2 s.RM.frames_out;
  checkb "fewer frames than requests" true (s.RM.frames_out < s.RM.requests);
  RM.Pipelined.close conn;
  RM.Loopback.shutdown lb

(* A window goes out in two halves: with credit 32 the sixteenth queued
   request sends the frame, so the manager runs that half while the
   explorer handles the replies to the other; with credit 1 every
   request is a frame. The first frame out is the HELLO. *)
let test_pipelined_half_window_flush () =
  let exec = executor () in
  let total_blocks = exec.Afex.Executor.total_blocks in
  let lb = RM.Loopback.create ~executor:exec () in
  let scenarios = Array.of_list (sample_scenarios 16) in
  let frames_out conn = (RM.Pipelined.stats conn).RM.frames_out in
  let submit conn i =
    match RM.Pipelined.submit conn ~tag:i scenarios.(i) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "submit: %s" (RM.string_of_error e)
  in
  let answered conn n =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let results = ref 0 in
    while !results < n && Unix.gettimeofday () < deadline do
      match RM.Pipelined.drain conn with
      | [] -> Unix.sleepf 0.002
      | rs -> results := !results + List.length rs
    done;
    checki "every request answered" n !results;
    RM.Pipelined.close conn
  in
  let conn = RM.Pipelined.create ~credit:32 (RM.Loopback.spec lb) ~total_blocks in
  for i = 0 to 14 do
    submit conn i;
    checki (Printf.sprintf "no frame leaves on submit %d" (i + 1)) 1 (frames_out conn);
    checkb "the request is queued" true (RM.Pipelined.buffered conn > 0)
  done;
  submit conn 15;
  checki "the 16th submit sends one frame" 2 (frames_out conn);
  checki "the buffer is empty" 0 (RM.Pipelined.buffered conn);
  answered conn 16;
  let conn = RM.Pipelined.create ~credit:1 (RM.Loopback.spec lb) ~total_blocks in
  for i = 0 to 3 do
    submit conn i;
    checki (Printf.sprintf "submit %d sends a frame" (i + 1)) (i + 2) (frames_out conn);
    checki "the buffer is empty" 0 (RM.Pipelined.buffered conn)
  done;
  answered conn 4;
  RM.Loopback.shutdown lb

(* Both ends of a TCP connection send each frame at once: the protocol
   coalesces on its own, and Nagle's algorithm would hold a half-window
   frame back behind the unacknowledged one before it. *)
let test_tcp_no_delay () =
  match Transport.listen_tcp ~port:0 () with
  | Error e -> Alcotest.failf "listen: %s" (Transport.string_of_error e)
  | Ok (listen_fd, port) ->
      let client = get_ok "connect" (Transport.connect_tcp ~host:"127.0.0.1" ~port ()) in
      let server = get_ok "accept" (Transport.accept listen_fd) in
      let no_delay (t : Transport.t) =
        match t.Transport.wait_fd () with
        | Some fd -> Unix.getsockopt fd Unix.TCP_NODELAY
        | None -> false
      in
      checkb "client end sets TCP_NODELAY" true (no_delay client);
      checkb "server end sets TCP_NODELAY" true (no_delay server);
      client.Transport.close ();
      server.Transport.close ();
      Unix.close listen_fd

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("frame round-trip", test_frame_roundtrip);
      ("frame survives byte-wise delivery", test_frame_incremental);
      ("multiple frames per feed", test_frame_multiple_per_feed);
      ("bad magic is corrupt", test_frame_bad_magic);
      ("oversized frames are typed errors", test_frame_oversized);
      ("checksum catches bit flips", test_frame_checksum);
      ("socketpair round-trip", test_pair_roundtrip);
      ("receive timeout", test_recv_timeout);
      ("closed and truncated peers", test_closed_and_truncated_peer);
      ("chaos mangler is seeded", test_chaos_mangler_deterministic);
      ("handshake codec", test_handshake_codec);
      ("version mismatch is rejected", test_serve_rejects_version_mismatch);
      ("client refuses a v1 welcome", test_client_refuses_old_welcome);
      ("outcome <-> report round-trip", test_outcome_report_roundtrip);
      ("loopback outcome equality", test_loopback_outcome_equality);
      ("manager errors are not retried", test_loopback_manager_error_not_retried);
      ("chaos on requests", test_chaos_on_requests);
      ("chaos on replies", test_chaos_on_replies);
      ("total blackout is bounded", test_chaos_blackout_is_bounded);
      ("pool: remote-only matches local", test_pool_remote_only_matches_local);
      ("pool: mixed matches local", test_pool_mixed_matches_local);
      ("pool: one request per manager by default", test_pool_one_request_per_manager);
      ("pool: chaotic remote matches local", test_pool_chaotic_remote_matches_local);
      ("pool: dead remote falls back", test_pool_dead_remote_falls_back);
      ("pool: rejects bad worker mix", test_pool_rejects_bad_worker_mix);
      ("v2: varint properties", test_varint_properties);
      ("v2: request codec (coalesce, delta, desync)", test_v2_request_codec);
      ("v2: reply round-trip (property)", test_v2_reply_roundtrip_property);
      ("v2: dictionary interning reaches steady state", test_v2_dict_interning);
      ("v2: desync is an error, never a wrong report", test_v2_desync_is_error);
      ("frame decoder at chunk granularities 1-7", test_decoder_chunk_granularity);
      ("wire decoders are total (property)", test_wire_decoders_total);
      ("pipelined requests coalesce into frames", test_pipelined_coalescing);
      ("pipelined half-window flush", test_pipelined_half_window_flush);
      ("TCP ends set TCP_NODELAY", test_tcp_no_delay);
    ]
