(* Tests for afex_cluster: protocol, node manager, and the discrete-event
   cluster simulation. *)

module Message = Afex_cluster.Message
module Node_manager = Afex_cluster.Node_manager
module Simulation = Afex_cluster.Simulation
module Scenario = Afex_faultspace.Scenario
module Value = Afex_faultspace.Value
module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome
module Apache = Afex_simtarget.Apache
module Config = Afex.Config

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Message protocol --- *)

(* One request frame through the wire codec, on fresh per-connection
   state at both ends. *)
let wire_requests encode =
  let b = Buffer.create 64 in
  encode (Message.V2.client_enc ()) b;
  Message.V2.decode_requests (Message.V2.server_dec ()) (Buffer.contents b)

let test_message_roundtrip () =
  let scenario =
    [ ("testId", Value.Int 4); ("function", Value.Sym "read"); ("callNumber", Value.Int 2) ]
  in
  match wire_requests (fun enc b -> Message.V2.encode_request enc b ~seq:17 scenario) with
  | Ok [ Message.Run_scenario { seq; scenario = s } ] ->
      checki "seq" 17 seq;
      Alcotest.(check string) "scenario" (Scenario.to_string scenario) (Scenario.to_string s)
  | Ok _ -> Alcotest.fail "wrong message"
  | Error e -> Alcotest.fail e

let test_message_shutdown () =
  match wire_requests (fun _ b -> Message.V2.encode_shutdown b) with
  | Ok [ Message.Shutdown ] -> ()
  | Ok _ | Error _ -> Alcotest.fail "shutdown round-trip"

let test_message_malformed () =
  let decode payload =
    Message.V2.decode_requests (Message.V2.server_dec ()) payload
  in
  checkb "unknown record tag rejected" true (Result.is_error (decode "BLAH 1 2"));
  checkb "truncated request rejected" true (Result.is_error (decode "\x01\x05"))

(* --- Node manager --- *)

let executor () = Afex.Executor.of_target (Apache.target ())

let test_manager_runs_scenario () =
  let m = Node_manager.create ~id:0 ~executor:(executor ()) () in
  let fault = Fault.make ~test_id:0 ~func:"read" ~call_number:1 () in
  let msg = Message.Run_scenario { seq = 1; scenario = Fault.to_scenario fault } in
  (match Node_manager.handle m msg with
  | Some (Message.Scenario_result r, elapsed) ->
      checki "seq echoed" 1 r.Message.seq;
      checkb "charged time includes scripts" true (elapsed >= r.Message.duration_ms)
  | Some (Message.Manager_error _, _) -> Alcotest.fail "unexpected error"
  | None -> Alcotest.fail "unexpected shutdown");
  checki "counted" 1 (Node_manager.tests_run m);
  checkb "busy time positive" true (Node_manager.busy_ms m > 0.0)

let test_manager_reports_bad_scenario () =
  let m = Node_manager.create ~id:0 ~executor:(executor ()) () in
  let msg = Message.Run_scenario { seq = 2; scenario = [ ("bogus", Value.Int 1) ] } in
  match Node_manager.handle m msg with
  | Some (Message.Manager_error { seq; _ }, _) -> checki "seq echoed" 2 seq
  | Some (Message.Scenario_result _, _) -> Alcotest.fail "should have failed"
  | None -> Alcotest.fail "unexpected shutdown"

let test_manager_shutdown () =
  let m = Node_manager.create ~id:0 ~executor:(executor ()) () in
  checkb "shutdown" true (Node_manager.handle m Message.Shutdown = None)

let test_manager_run_scenario () =
  let m = Node_manager.create ~id:3 ~executor:(executor ()) ~startup_ms:10.0 ~cleanup_ms:5.0 () in
  let fault = Fault.make ~test_id:1 ~func:"read" ~call_number:0 () in
  let outcome, elapsed = Node_manager.run_scenario m (Fault.to_scenario fault) in
  checkb "scripts charged" true
    (Float.abs (elapsed -. (outcome.Outcome.duration_ms +. 15.0)) < 1e-6)

(* --- Simulation --- *)

let sim nodes iterations =
  Simulation.run
    { Simulation.default_config with Simulation.nodes; iterations }
    (Config.fitness_guided ~seed:42 ())
    (Apache.space ()) (executor ())

let test_simulation_executes_exact_count () =
  let r = sim 3 200 in
  checki "exact test count" 200 r.Simulation.tests_executed;
  checki "nodes recorded" 3 r.Simulation.nodes;
  checki "per-node busy entries" 3 (Array.length r.Simulation.busy_ms)

let test_simulation_single_node () =
  let r = sim 1 50 in
  checki "all on one node" 50 r.Simulation.tests_executed;
  checkb "utilization high" true (r.Simulation.utilization > 0.9)

let test_simulation_throughput_scales () =
  let r1 = sim 1 400 and r4 = sim 4 400 in
  let speedup = Simulation.speedup ~baseline:r1 r4 in
  checkb
    (Printf.sprintf "4 nodes give ~4x (got %.2fx)" speedup)
    true
    (speedup > 3.0 && speedup < 5.5)

let test_simulation_wall_bounded_by_busy () =
  let r = sim 2 100 in
  (* Makespan is at least the busiest node's work. *)
  let max_busy = Array.fold_left Float.max 0.0 r.Simulation.busy_ms in
  checkb "wall >= max busy" true (r.Simulation.wall_ms >= max_busy -. 1e-6)

let test_simulation_deterministic () =
  let a = sim 4 150 and b = sim 4 150 in
  checkb "same failures" true (a.Simulation.failed = b.Simulation.failed);
  checkb "same wall clock" true (Float.abs (a.Simulation.wall_ms -. b.Simulation.wall_ms) < 1e-6)

let test_simulation_rejects_zero_nodes () =
  checkb "needs nodes" true
    (try ignore (sim 0 10); false with Invalid_argument _ -> true)

let test_scaling_list () =
  let results =
    Simulation.scaling ~node_counts:[ 1; 2 ] ~iterations:100
      (Config.fitness_guided ~seed:1 ())
      (Apache.space ()) (executor ())
  in
  checki "one result per node count" 2 (List.length results);
  match results with
  | [ a; b ] ->
      checki "node counts respected" 1 a.Simulation.nodes;
      checki "node counts respected" 2 b.Simulation.nodes
  | _ -> Alcotest.fail "shape"

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("message roundtrip", test_message_roundtrip);
      ("message shutdown", test_message_shutdown);
      ("message malformed", test_message_malformed);
      ("manager runs scenario", test_manager_runs_scenario);
      ("manager reports bad scenario", test_manager_reports_bad_scenario);
      ("manager shutdown", test_manager_shutdown);
      ("manager run_scenario charges scripts", test_manager_run_scenario);
      ("simulation exact count", test_simulation_executes_exact_count);
      ("simulation single node", test_simulation_single_node);
      ("simulation throughput scales", test_simulation_throughput_scales);
      ("simulation wall >= busy", test_simulation_wall_bounded_by_busy);
      ("simulation deterministic", test_simulation_deterministic);
      ("simulation rejects zero nodes", test_simulation_rejects_zero_nodes);
      ("scaling list", test_scaling_list);
    ]
