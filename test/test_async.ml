(* Tests for the async execution stack: the Prop harness itself, the
   single-domain event-loop executor, pipelined remote dispatch
   (out-of-order matching, per-connection credit, straggler timeouts
   from each connection's oldest request, non-blocking backoff), and the
   determinism invariant — the explored history is identical at every
   --inflight value. *)

module Transport = Afex_cluster.Transport
module Message = Afex_cluster.Message
module RM = Afex_cluster.Remote_manager
module AE = Afex_cluster.Async_executor
module Pool = Afex_cluster.Pool
module Config = Afex.Config
module Session = Afex.Session
module Test_case = Afex.Test_case
module Point = Afex_faultspace.Point
module Scenario = Afex_faultspace.Scenario
module Outcome = Afex_injector.Outcome
module Fault = Afex_injector.Fault
module Bitset = Afex_stats.Bitset
module Target = Afex_simtarget.Target
module Apache = Afex_simtarget.Apache

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let executor () = Afex.Executor.of_target (Apache.target ())

let history (r : Session.result) =
  List.map
    (fun (c : Test_case.t) ->
      ( Point.key c.Test_case.point,
        Outcome.status_to_string c.Test_case.status,
        c.Test_case.fitness ))
    r.Session.executed

let outcome_equal (a : Outcome.t) (b : Outcome.t) =
  Fault.equal a.Outcome.fault b.Outcome.fault
  && a.Outcome.status = b.Outcome.status
  && a.Outcome.triggered = b.Outcome.triggered
  && Bitset.equal a.Outcome.coverage b.Outcome.coverage
  && a.Outcome.duration_ms = b.Outcome.duration_ms

let sample_scenarios n =
  let exec = executor () in
  let explorer =
    Afex.Explorer.create (Config.random_search ~seed:99 ()) (Apache.space ()) exec
  in
  List.init n (fun _ ->
      match Afex.Explorer.next explorer with
      | Some p -> Afex.Explorer.scenario_for explorer p
      | None -> Alcotest.fail "sample_scenarios: space exhausted")

(* --- the Prop harness itself ------------------------------------------ *)

let test_prop_true_property_passes () =
  match
    Prop.find_counterexample ~count:300 (Prop.int_range 0 1000) (fun n ->
        n >= 0 && n <= 1000)
  with
  | None -> ()
  | Some _ -> Alcotest.fail "a true property must not be falsified"

let test_prop_shrinks_int_to_boundary () =
  (* "every int is < 50" fails; greedy shrinking must land exactly on the
     boundary value, not on whatever case happened to fail first. *)
  match
    Prop.find_counterexample ~count:300 (Prop.int_range 0 1000) (fun n -> n < 50)
  with
  | None -> Alcotest.fail "expected a counterexample"
  | Some f ->
      checki "minimal counterexample" 50 f.Prop.shrunk;
      checkb "original was at least as large" true (f.Prop.original >= 50)

let test_prop_shrinks_list_structurally () =
  (* "every list is shorter than 3" — minimal counterexample is three
     zeros: first drop elements, then shrink the survivors. *)
  match
    Prop.find_counterexample ~count:300
      (Prop.list ~max_length:8 (Prop.int_range 0 9))
      (fun l -> List.length l < 3)
  with
  | None -> Alcotest.fail "expected a counterexample"
  | Some f ->
      checkb "minimal counterexample is [0; 0; 0]" true (f.Prop.shrunk = [ 0; 0; 0 ])

let test_prop_pair_shrinks_both_sides () =
  match
    Prop.find_counterexample ~count:500
      (Prop.pair (Prop.int_range 0 100) (Prop.int_range 0 100))
      (fun (a, b) -> a + b < 60)
  with
  | None -> Alcotest.fail "expected a counterexample"
  | Some f ->
      let a, b = f.Prop.shrunk in
      checki "shrunk to the boundary" 60 (a + b)

(* --- history determinism across inflight ------------------------------ *)

let latency_async () =
  let exec = executor () in
  let model = Target.latency_model ~seed:7 (Target.Uniform { lo = 0.05; hi = 0.4 }) in
  Afex.Executor.delayed
    ~delay_ms:(fun scenario ->
      Target.latency_ms model (Scenario.to_string scenario))
    exec

let async_run ~inflight () =
  let pool = Pool.create ~inflight ~jobs:1 (Pool.Async (latency_async ())) in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let result, stats =
        Pool.session ~batch_size:16 ~iterations:120 pool
          (Config.fitness_guided ~seed:5 ())
          (Apache.space ())
      in
      (history result, stats, Pool.async_stats pool))

let blocking_history () =
  let result, _ =
    Pool.run ~jobs:1 ~batch_size:16 ~iterations:120
      (Config.fitness_guided ~seed:5 ())
      (Apache.space ())
      (Pool.Pure (executor ()))
  in
  history result

let test_history_identical_across_inflight () =
  let blocking = blocking_history () in
  List.iter
    (fun inflight ->
      let h, _, async_stats = async_run ~inflight () in
      checkb
        (Printf.sprintf "inflight %d history equals blocking pool history"
           inflight)
        true (h = blocking);
      match async_stats with
      | None -> Alcotest.fail "expected event-loop mode"
      | Some s ->
          if inflight > 1 then
            checkb "tests actually overlapped" true (s.AE.max_inflight > 1))
    [ 1; 4; 32 ]

let test_async_session_counts_pinned () =
  (* Counts are seed-deterministic (never wall-clock): a behaviour change
     in candidate generation, memoization or the merge shows up here. *)
  let _, stats, _ = async_run ~inflight:8 () in
  checki "executed" 120 stats.Pool.executed;
  checki "cache hits" 0 stats.Pool.cache_hits;
  checki "no remotes involved" 0 stats.Pool.remote_runs;
  (* The phase totals are wall-clock, so only their shape is checked:
     three disjoint spans of the session loop. *)
  let phases = [ stats.Pool.gen_ms; stats.Pool.stall_ms; stats.Pool.merge_ms ] in
  checkb "phase totals are non-negative" true
    (List.for_all (fun ms -> ms >= 0.0) phases);
  checkb "phase totals fit inside the session wall" true
    (List.fold_left ( +. ) 0.0 phases <= stats.Pool.wall_ms)

(* --- the deterministic latency model ---------------------------------- *)

let test_latency_model_deterministic () =
  let model = Target.latency_model ~seed:42 (Target.Uniform { lo = 1.0; hi = 3.0 }) in
  let keys = List.init 50 (Printf.sprintf "scenario-%d") in
  List.iter
    (fun key ->
      let a = Target.latency_ms model key and b = Target.latency_ms model key in
      checkf "same key, same latency" a b;
      checkb "within the distribution's support" true (a >= 1.0 && a <= 3.0))
    keys;
  let distinct =
    List.sort_uniq compare (List.map (Target.latency_ms model) keys)
  in
  checkb "keys spread over the range" true (List.length distinct > 25);
  let other = Target.latency_model ~seed:43 (Target.Uniform { lo = 1.0; hi = 3.0 }) in
  checkb "the seed matters" true
    (List.exists
       (fun k -> Target.latency_ms model k <> Target.latency_ms other k)
       keys)

let test_latency_distributions () =
  let fixed = Target.latency_model (Target.Fixed 5.0) in
  checkf "fixed is fixed" 5.0 (Target.latency_ms fixed "anything");
  let bimodal =
    Target.latency_model ~seed:1
      (Target.Bimodal { fast = 1.0; slow = 100.0; slow_share = 0.3 })
  in
  let draws = List.init 200 (fun i -> Target.latency_ms bimodal (string_of_int i)) in
  checkb "bimodal draws only the two modes" true
    (List.for_all (fun d -> d = 1.0 || d = 100.0) draws);
  checkb "both modes appear" true
    (List.exists (( = ) 1.0) draws && List.exists (( = ) 100.0) draws);
  let exp = Target.latency_model ~seed:2 (Target.Exponential { mean = 10.0 }) in
  let draws = List.init 500 (fun i -> Target.latency_ms exp (string_of_int i)) in
  let mean = List.fold_left ( +. ) 0.0 draws /. 500.0 in
  checkb "exponential draws are positive" true (List.for_all (fun d -> d >= 0.0) draws);
  checkb "empirical mean near the model mean" true (mean > 6.0 && mean < 14.0);
  checkb "invalid parameters rejected" true
    (try
       ignore (Target.latency_model (Target.Uniform { lo = 3.0; hi = 1.0 }));
       false
     with Invalid_argument _ -> true)

let test_latency_dist_string_roundtrip () =
  List.iter
    (fun dist ->
      match Target.latency_dist_of_string (Target.latency_dist_to_string dist) with
      | Ok d -> checkb "round-trips" true (d = dist)
      | Error e -> Alcotest.failf "did not round-trip: %s" e)
    [
      Target.Fixed 2.5;
      Target.Uniform { lo = 0.5; hi = 4.0 };
      Target.Exponential { mean = 12.0 };
      Target.Bimodal { fast = 1.0; slow = 50.0; slow_share = 0.125 };
    ];
  List.iter
    (fun s ->
      checkb (Printf.sprintf "reject %S" s) true
        (match Target.latency_dist_of_string s with Error _ -> true | Ok _ -> false))
    [ ""; "gaussian:3"; "fixed:"; "uniform:5-1"; "exp:-2"; "bimodal:1,2"; "fixed:fast" ]

(* --- pipelined remote dispatch ---------------------------------------- *)

(* A manager spec whose first dial returns [client_end] and every later
   dial fails. *)
let single_shot_spec name client_end =
  let dialed = ref false in
  RM.spec ~name (fun () ->
      if !dialed then Error (Transport.Io "single-shot dial")
      else begin
        dialed := true;
        Ok client_end
      end)

(* A hand-rolled manager that answers requests in *reverse* arrival
   order: correctness must come from seq matching, not luck. *)
let test_pipelined_out_of_order_responses () =
  let exec = executor () in
  let client_end, server_end = Transport.pair () in
  let server =
    Domain.spawn (fun () ->
        let recv () =
          match server_end.Transport.recv () with
          | Ok line -> line
          | Error e -> Alcotest.failf "server recv: %s" (Transport.string_of_error e)
        in
        ignore (recv ()) (* HELLO *);
        (match
           server_end.Transport.send
             (Message.encode_welcome ~version:Message.protocol_version)
         with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "server: welcome failed");
        (* The client may coalesce the three requests into fewer frames. *)
        let sdec = Message.V2.server_dec () in
        let rec read_requests acc =
          if List.length acc >= 3 then acc
          else
            match Message.V2.decode_requests sdec (recv ()) with
            | Ok msgs ->
                read_requests
                  (acc
                  @ List.map
                      (function
                        | Message.Run_scenario { seq; scenario } -> (seq, scenario)
                        | Message.Shutdown ->
                            Alcotest.fail "server: expected a run request")
                      msgs)
            | Error m -> Alcotest.failf "server: undecodable request: %s" m
        in
        let requests = read_requests [] in
        (* One frame per reply, newest request first. *)
        let senc = Message.V2.server_enc () in
        List.iter
          (fun (seq, scenario) ->
            let outcome = exec.Afex.Executor.run_scenario scenario in
            let b = Buffer.create 256 in
            Message.V2.encode_reply senc b
              (Message.Scenario_result (Message.report_of_outcome ~seq outcome));
            match server_end.Transport.send (Buffer.contents b) with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "server: reply failed")
          (List.rev requests);
        server_end.Transport.close ())
  in
  let conn =
    RM.Pipelined.create
      (single_shot_spec "reverser" client_end)
      ~total_blocks:exec.Afex.Executor.total_blocks
  in
  let scenarios = Array.of_list (sample_scenarios 3) in
  Array.iteri
    (fun tag scenario ->
      match RM.Pipelined.submit conn ~tag scenario with
      | Ok () -> ()
      | Error e -> Alcotest.failf "submit: %s" (RM.string_of_error e))
    scenarios;
  checki "three requests on the wire" 3 (RM.Pipelined.pending conn);
  checkb "the oldest request is tracked" true
    (RM.Pipelined.oldest_sent_ms conn <> None);
  let collected = Hashtbl.create 3 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Hashtbl.length collected < 3 && Unix.gettimeofday () < deadline do
    List.iter
      (fun (tag, outcome) -> Hashtbl.replace collected tag outcome)
      (RM.Pipelined.drain conn);
    if RM.Pipelined.take_orphans conn <> [] then
      Alcotest.fail "drain: a request came back unanswered";
    if Hashtbl.length collected < 3 then Unix.sleepf 0.002
  done;
  checki "all three responses matched" 3 (Hashtbl.length collected);
  checki "nothing left outstanding" 0 (RM.Pipelined.pending conn);
  Array.iteri
    (fun tag scenario ->
      let local = exec.Afex.Executor.run_scenario scenario in
      checkb
        (Printf.sprintf "tag %d matched its own scenario despite reversal" tag)
        true
        (outcome_equal (Hashtbl.find collected tag) local))
    scenarios;
  RM.Pipelined.close conn;
  ignore (Domain.join server)

let test_slow_manager_times_out_to_local () =
  (* The manager sleeps ~80 ms per test; the client's straggler bound is
     25 ms. Every remoted test must come back via local fallback and the
     history must be exactly the local one. *)
  let exec = executor () in
  let slow =
    Afex.Executor.sync_of_async
      (Afex.Executor.delayed ~delay_ms:(fun _ -> 80.0) exec)
  in
  let lb = RM.Loopback.create ~executor:slow () in
  let pool =
    Pool.create
      ~remotes:[ RM.Loopback.spec ~max_attempts:2 ~backoff_ms:1.0 lb ]
      ~inflight:8 ~request_timeout_ms:25 ~jobs:1 (Pool.Pure exec)
  in
  let result, stats =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.session ~batch_size:16 ~iterations:60 pool
          (Config.fitness_guided ~seed:5 ())
          (Apache.space ()))
  in
  RM.Loopback.shutdown lb;
  let local, _ =
    Pool.run ~jobs:1 ~batch_size:16 ~iterations:60
      (Config.fitness_guided ~seed:5 ())
      (Apache.space ())
      (Pool.Pure (executor ()))
  in
  checkb "history survives a hopeless manager" true (history result = history local);
  checkb "stragglers fell back locally" true (stats.Pool.remote_fallbacks > 0);
  checkb "the manager was written off after its attempts" true
    (RM.Loopback.connections lb <= 2)

let test_dead_remote_backoff_never_blocks () =
  (* A manager that cannot even be dialed, with a 10-second backoff: the
     campaign must still finish promptly, because backoff gates the
     manager on the dispatch path (its tests run locally) and never
     sleeps. *)
  let dead =
    RM.spec ~name:"dead" ~max_attempts:3 ~backoff_ms:10_000.0 (fun () ->
        Error (Transport.Io "connection refused"))
  in
  let started = Unix.gettimeofday () in
  let result, stats =
    Pool.run
      ~remotes:[ dead ]
      ~inflight:4 ~jobs:1 ~batch_size:16 ~iterations:60
      (Config.fitness_guided ~seed:5 ())
      (Apache.space ())
      (Pool.Pure (executor ()))
  in
  let wall_s = Unix.gettimeofday () -. started in
  let local, _ =
    Pool.run ~jobs:1 ~batch_size:16 ~iterations:60
      (Config.fitness_guided ~seed:5 ())
      (Apache.space ())
      (Pool.Pure (executor ()))
  in
  checkb "history unaffected by the dead manager" true
    (history result = history local);
  checkb "dial failures fell back" true (stats.Pool.remote_fallbacks > 0);
  checkb "the 10s backoff never blocked the loop" true (wall_s < 5.0)

let test_chaos_under_pipelining () =
  (* The chaos mangler corrupts both directions while eight requests ride
     one connection: every drop/bitflip must end in a local fallback or a
     clean re-dial, never a wrong or lost outcome. *)
  let mild =
    {
      Transport.drop = 0.15;
      duplicate = 0.15;
      truncate = 0.05;
      bitflip = 0.1;
      garbage = 0.1;
    }
  in
  let exec = executor () in
  let lb =
    RM.Loopback.create ~chaos_to_server:mild ~chaos_to_client:mild ~chaos_seed:17
      ~recv_timeout_ms:40 ~executor:exec ()
  in
  let pool =
    Pool.create
      ~remotes:[ RM.Loopback.spec ~max_attempts:10 ~backoff_ms:0.2 lb ]
      ~inflight:8 ~request_timeout_ms:50 ~jobs:1 (Pool.Pure exec)
  in
  let result, stats =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.session ~batch_size:16 ~iterations:100 pool
          (Config.fitness_guided ~seed:5 ())
          (Apache.space ()))
  in
  RM.Loopback.shutdown lb;
  let local, _ =
    Pool.run ~jobs:1 ~batch_size:16 ~iterations:100
      (Config.fitness_guided ~seed:5 ())
      (Apache.space ())
      (Pool.Pure (executor ()))
  in
  checkb "chaos never corrupts the explored history" true
    (history result = history local);
  checkb "requests were pipelined onto the mangled wire" true
    (stats.Pool.remote_runs > 0);
  checkb "chaos forced local fallbacks" true (stats.Pool.remote_fallbacks > 0)

let test_pipelined_fail_cancels_awaiting () =
  (* The straggler path: a request is on the wire, the manager dies, and
     the caller declares the connection dead. The request must leave the
     wire (nothing pending, and no oldest request left whose deadline
     could punish the connection again), the tag must come back exactly
     once via take_orphans, with its scenario, the connection must stay
     gated until its reconnect backoff has passed, and repeated deaths
     must spend the retry budget. *)
  let exec = executor () in
  let slow =
    Afex.Executor.sync_of_async
      (Afex.Executor.delayed ~delay_ms:(fun _ -> 200.0) exec)
  in
  let lb = RM.Loopback.create ~executor:slow () in
  let spec = RM.Loopback.spec ~max_attempts:2 ~backoff_ms:5.0 lb in
  let conn =
    RM.Pipelined.create spec ~total_blocks:exec.Afex.Executor.total_blocks
  in
  let scenario = List.hd (sample_scenarios 1) in
  let before = Afex.Executor.monotonic_ms () in
  (match RM.Pipelined.submit conn ~tag:7 scenario with
  | Ok () -> ()
  | Error e -> Alcotest.failf "submit: %s" (RM.string_of_error e));
  let after = Afex.Executor.monotonic_ms () in
  checki "request is on the wire" 1 (RM.Pipelined.pending conn);
  checkb "it is the oldest request, stamped at submit" true
    (match RM.Pipelined.oldest_sent_ms conn with
    | Some sent -> sent >= before && sent <= after
    | None -> false);
  let failed = Afex.Executor.monotonic_ms () in
  RM.Pipelined.fail conn;
  let gated = not (RM.Pipelined.dispatchable conn) in
  (* Only a host stall of 5 ms between the two reads could open it. *)
  checkb "the backoff gate closes at the failure" true
    (gated || Afex.Executor.monotonic_ms () -. failed >= 5.0);
  checkb "not written off after one failure" false
    (RM.Pipelined.abandoned conn);
  checki "nothing left on the wire" 0 (RM.Pipelined.pending conn);
  checkb "no oldest request left to time out" true
    (RM.Pipelined.oldest_sent_ms conn = None);
  checkb "orphaned exactly once, with its scenario" true
    (RM.Pipelined.take_orphans conn = [ (7, scenario) ]);
  checkb "a second take finds nothing" true (RM.Pipelined.take_orphans conn = []);
  checki "one consecutive failure" 1 (RM.Pipelined.failures conn);
  (* The gate is read, never slept: it opens once the 5 ms backoff has
     passed. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (not (RM.Pipelined.dispatchable conn)) && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.001
  done;
  let opened = Afex.Executor.monotonic_ms () in
  checkb "dispatchable again before the budget is spent" true
    (RM.Pipelined.dispatchable conn);
  checkb "not before the backoff has passed" true (opened -. failed >= 5.0);
  (* The remote dies again before any reconnect: no request is in
     flight, so no phantom orphan may appear — but the failure must
     still count against the budget. *)
  RM.Pipelined.fail conn;
  checki "failures accumulate" 2 (RM.Pipelined.failures conn);
  checkb "no phantom orphans" true (RM.Pipelined.take_orphans conn = []);
  checkb "written off after max_attempts" true (RM.Pipelined.abandoned conn);
  checkb "an abandoned manager is never dispatched to" false
    (RM.Pipelined.dispatchable conn);
  RM.Pipelined.close conn;
  RM.Loopback.shutdown lb

(* A hand-rolled manager that answers every request but the one on
   [withhold], until the client hangs up. *)
let withholding_manager exec (server_end : Transport.t) ~withhold =
  let rec greet () =
    match server_end.Transport.recv () with
    | Ok _hello ->
        ignore
          (server_end.Transport.send
             (Message.encode_welcome ~version:Message.protocol_version))
    | Error Transport.Timeout -> greet ()
    | Error _ -> ()
  in
  greet ();
  let sdec = Message.V2.server_dec () and senc = Message.V2.server_enc () in
  let rec serve () =
    match server_end.Transport.recv () with
    | Error Transport.Timeout -> serve ()
    | Error _ -> ()
    | Ok payload -> (
        match Message.V2.decode_requests sdec payload with
        | Error _ -> ()
        | Ok msgs ->
            let b = Buffer.create 256 in
            List.iter
              (function
                | Message.Run_scenario { seq; scenario } when seq <> withhold ->
                    let outcome = exec.Afex.Executor.run_scenario scenario in
                    Message.V2.encode_reply senc b
                      (Message.Scenario_result
                         (Message.report_of_outcome ~seq outcome))
                | Message.Run_scenario _ | Message.Shutdown -> ())
              msgs;
            if Buffer.length b = 0 then serve ()
            else
              match server_end.Transport.send (Buffer.contents b) with
              | Ok () -> serve ()
              | Error _ -> ())
  in
  serve ();
  server_end.Transport.close ()

let test_straggler_deadline_is_oldest_request () =
  (* The manager answers the second and third requests and withholds the
     first, whose tag 0 is its sequence number on the wire. Every
     request shares one timeout, so the connection's straggler deadline
     is the first request's send time plus that timeout, and the replies
     to the later requests must not move it. *)
  let exec = executor () in
  let total_blocks = exec.Afex.Executor.total_blocks in
  let scenarios = Array.of_list (sample_scenarios 3) in
  let client_end, server_end = Transport.pair () in
  let server =
    Domain.spawn (fun () -> withholding_manager exec server_end ~withhold:0)
  in
  let conn =
    RM.Pipelined.create (single_shot_spec "withholder" client_end) ~total_blocks
  in
  let submit tag =
    match RM.Pipelined.submit conn ~tag scenarios.(tag) with
    | Ok () -> ignore (RM.Pipelined.flush conn)
    | Error e -> Alcotest.failf "submit: %s" (RM.string_of_error e)
  in
  submit 0;
  let first = RM.Pipelined.oldest_sent_ms conn in
  checkb "the first request is the oldest" true (first <> None);
  Unix.sleepf 0.005;
  submit 1;
  submit 2;
  checkb "later requests do not move the oldest" true
    (RM.Pipelined.oldest_sent_ms conn = first);
  let answered = ref [] in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while List.length !answered < 2 && Unix.gettimeofday () < deadline do
    List.iter
      (fun (tag, outcome) ->
        checkb
          (Printf.sprintf "tag %d matched its own scenario" tag)
          true
          (outcome_equal outcome
             (exec.Afex.Executor.run_scenario scenarios.(tag)));
        answered := tag :: !answered)
      (RM.Pipelined.drain conn);
    if List.length !answered < 2 then Unix.sleepf 0.002
  done;
  checkb "the later requests were answered" true
    (List.sort compare !answered = [ 1; 2 ]);
  checki "the withheld request is still on the wire" 1 (RM.Pipelined.pending conn);
  checkb "replies to later requests leave the oldest in place" true
    (RM.Pipelined.oldest_sent_ms conn = first);
  RM.Pipelined.fail conn;
  checkb "the straggler is orphaned" true
    (RM.Pipelined.take_orphans conn = [ (0, scenarios.(0)) ]);
  RM.Pipelined.close conn;
  Domain.join server;
  (* The event loop times the connection out from that deadline: the
     withheld test falls back and runs locally, the others arrive from
     the manager, and no outcome changes. *)
  let client_end, server_end = Transport.pair () in
  let server =
    Domain.spawn (fun () -> withholding_manager exec server_end ~withhold:0)
  in
  let timeout_ms = 300 in
  let ae =
    AE.create
      ~remotes:[ single_shot_spec "withholder" client_end ]
      ~request_timeout_ms:timeout_ms ~inflight:3
      (Afex.Executor.async_of_sync exec)
  in
  let started = Afex.Executor.monotonic_ms () in
  Array.iteri (fun tag scenario -> AE.submit ae ~tag scenario) scenarios;
  let results = Array.make 3 None in
  let finished = Array.make 3 0.0 in
  while Array.exists Option.is_none results do
    List.iter
      (fun (tag, result) ->
        results.(tag) <- Some result;
        finished.(tag) <- Afex.Executor.monotonic_ms ())
      (AE.poll ae ~block:true)
  done;
  AE.close ae;
  Domain.join server;
  Array.iteri
    (fun tag result ->
      match result with
      | Some (Ok outcome) ->
          checkb
            (Printf.sprintf "test %d has its local outcome" tag)
            true
            (outcome_equal outcome (exec.Afex.Executor.run_scenario scenarios.(tag)))
      | Some (Error _) | None -> Alcotest.failf "test %d failed" tag)
    results;
  let stats = AE.stats ae in
  checki "all three went to the manager" 3 stats.AE.remote_runs;
  checki "only the withheld one fell back" 1 stats.AE.remote_fallbacks;
  checkb "the withheld test waited out the timeout" true
    (finished.(0) -. started >= float_of_int timeout_ms)

let test_pipelined_credit () =
  (* The credit is fixed when the connection is created: the event loop
     passes its [inflight], so no one manager absorbs more than the
     whole window. *)
  let exec = executor () in
  let lb = RM.Loopback.create ~executor:exec () in
  let spec = RM.Loopback.spec lb in
  let total_blocks = exec.Afex.Executor.total_blocks in
  (match RM.Pipelined.create ~credit:0 spec ~total_blocks with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "credit 0 should be rejected");
  let unbounded = RM.Pipelined.create spec ~total_blocks in
  checkb "unlimited credit by default" true (RM.Pipelined.has_credit unbounded);
  let conn = RM.Pipelined.create ~credit:1 spec ~total_blocks in
  checkb "a fresh connection has credit" true (RM.Pipelined.has_credit conn);
  (match RM.Pipelined.submit conn ~tag:0 (List.hd (sample_scenarios 1)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "submit: %s" (RM.string_of_error e));
  checkb "one outstanding exhausts a credit of one" false
    (RM.Pipelined.has_credit conn);
  let deadline = Unix.gettimeofday () +. 5.0 in
  while RM.Pipelined.pending conn > 0 && Unix.gettimeofday () < deadline do
    ignore (RM.Pipelined.drain conn);
    if RM.Pipelined.take_orphans conn <> [] then
      Alcotest.fail "drain: a request came back unanswered";
    if RM.Pipelined.pending conn > 0 then Unix.sleepf 0.002
  done;
  checkb "the response gives the credit back" true (RM.Pipelined.has_credit conn);
  RM.Pipelined.close conn;
  RM.Pipelined.close unbounded;
  RM.Loopback.shutdown lb

(* Submit every scenario under its index and poll until all have come
   back; results are indexed by submission position. *)
let run_all ae scenarios =
  Array.iteri (fun tag scenario -> AE.submit ae ~tag scenario) scenarios;
  let results = Array.make (Array.length scenarios) None in
  while Array.exists Option.is_none results do
    List.iter (fun (tag, r) -> results.(tag) <- Some r) (AE.poll ae ~block:true)
  done;
  Array.map Option.get results

let test_async_zero_delay_jobs () =
  (* delay 0: every job's readiness estimate is already due at dispatch.
     The loop must complete the batch without spinning and the outcomes
     must match a synchronous run. *)
  let exec = executor () in
  let instant = Afex.Executor.delayed ~delay_ms:(fun _ -> 0.0) exec in
  let scenarios = Array.of_list (sample_scenarios 6) in
  let ae = AE.create ~inflight:3 instant in
  let results = run_all ae scenarios in
  Array.iteri
    (fun i result ->
      match result with
      | Ok outcome ->
          checkb
            (Printf.sprintf "zero-delay job %d matches the sync outcome" i)
            true
            (outcome_equal outcome (exec.Afex.Executor.run_scenario scenarios.(i)))
      | Error _ -> Alcotest.failf "zero-delay job %d failed" i)
    results;
  checki "all ran locally" 6 (AE.stats ae).AE.local_runs

(* --- fd-backed jobs ---------------------------------------------------- *)

let test_fd_backed_jobs_overlap () =
  (* Jobs whose readiness is an OS fd (the shape of a wrapped fork/exec'd
     target): the loop must discover completions via select and overlap
     the waits. *)
  let exec = executor () in
  let scenarios = Array.of_list (sample_scenarios 4) in
  let writers = ref [] in
  (* The i-th scenario's job completes 20 + 10 i ms after it starts. *)
  let start scenario =
    let i = ref 0 in
    Array.iteri (fun j s -> if s == scenario then i := j) scenarios;
    let delay_s = 0.02 +. (0.01 *. float_of_int !i) in
    let r, w = Unix.pipe () in
    writers :=
      Domain.spawn (fun () ->
          Unix.sleepf delay_s;
          ignore (Unix.write w (Bytes.of_string "x") 0 1);
          Unix.close w)
      :: !writers;
    let outcome = ref None in
    {
      Afex.Executor.poll =
        (fun () ->
          match !outcome with
          | Some o -> Some o
          | None -> (
              match Unix.select [ r ] [] [] 0.0 with
              | [], _, _ -> None
              | _ ->
                  ignore (Unix.read r (Bytes.create 1) 0 1);
                  Unix.close r;
                  let o = exec.Afex.Executor.run_scenario scenario in
                  outcome := Some o;
                  Some o));
      wait_fd = Some r;
      ready_at_ms = (fun () -> None);
    }
  in
  let ae =
    AE.create ~inflight:4
      {
        Afex.Executor.start;
        async_total_blocks = exec.Afex.Executor.total_blocks;
        async_description = "fd-backed";
      }
  in
  let started = Unix.gettimeofday () in
  let results = run_all ae scenarios in
  let wall_s = Unix.gettimeofday () -. started in
  List.iter Domain.join !writers;
  Array.iteri
    (fun i result ->
      match result with
      | Ok outcome ->
          checkb
            (Printf.sprintf "fd job %d produced the right outcome" i)
            true
            (outcome_equal outcome (exec.Afex.Executor.run_scenario scenarios.(i)))
      | Error _ -> Alcotest.failf "fd job %d failed" i)
    results;
  (* Sequential would be 20+30+40+50 = 140 ms; overlapped is ~50 ms. *)
  checkb "waits overlapped" true (wall_s < 0.120);
  checki "window filled" 4 (AE.stats ae).AE.max_inflight

let suite =
  [
    Alcotest.test_case "prop: true property passes" `Quick
      test_prop_true_property_passes;
    Alcotest.test_case "prop: int shrinks to boundary" `Quick
      test_prop_shrinks_int_to_boundary;
    Alcotest.test_case "prop: list shrinks structurally" `Quick
      test_prop_shrinks_list_structurally;
    Alcotest.test_case "prop: pair shrinks both sides" `Quick
      test_prop_pair_shrinks_both_sides;
    Alcotest.test_case "history identical across inflight" `Quick
      test_history_identical_across_inflight;
    Alcotest.test_case "async session counts pinned" `Quick
      test_async_session_counts_pinned;
    Alcotest.test_case "latency model is deterministic" `Quick
      test_latency_model_deterministic;
    Alcotest.test_case "latency distributions" `Quick test_latency_distributions;
    Alcotest.test_case "latency dist string round-trip" `Quick
      test_latency_dist_string_roundtrip;
    Alcotest.test_case "pipelined out-of-order responses" `Quick
      test_pipelined_out_of_order_responses;
    Alcotest.test_case "slow manager times out to local" `Quick
      test_slow_manager_times_out_to_local;
    Alcotest.test_case "dead remote backoff never blocks" `Quick
      test_dead_remote_backoff_never_blocks;
    Alcotest.test_case "chaos under pipelining" `Quick test_chaos_under_pipelining;
    Alcotest.test_case "pipelined fail cancels awaiting" `Quick
      test_pipelined_fail_cancels_awaiting;
    Alcotest.test_case "pipelined credit" `Quick test_pipelined_credit;
    Alcotest.test_case "straggler deadline is the oldest request" `Quick
      test_straggler_deadline_is_oldest_request;
    Alcotest.test_case "zero-delay async jobs" `Quick test_async_zero_delay_jobs;
    Alcotest.test_case "fd-backed jobs overlap" `Quick test_fd_backed_jobs_overlap;
  ]
