(* Tests for afex_injector: fault encoding, execution semantics of the
   engine, sensors, and the plugin layer. *)

module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome
module Engine = Afex_injector.Engine
module Sensor = Afex_injector.Sensor
module Plugin = Afex_injector.Plugin
module Behavior = Afex_simtarget.Behavior
module Callsite = Afex_simtarget.Callsite
module Sim_test = Afex_simtarget.Sim_test
module Target = Afex_simtarget.Target
module Bitset = Afex_stats.Bitset
module Rng = Afex_stats.Rng
module Subspace = Afex_faultspace.Subspace
module Axis = Afex_faultspace.Axis
module Point = Afex_faultspace.Point

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-9))

(* A hand-built micro target with one site per behaviour:
     site 0: read, Handled (recovery block 8)
     site 1: close, Test_fails (recovery block 9)
     site 2: write, Crash (plain)
     site 3: malloc, Crash in recovery (recovery block 10)
     site 4: fgets, Hang
   Test 0 trace: [0; 1; 0; 2; 3; 4]  (read, close, read, write, malloc, fgets)
   Blocks: site i owns block i (normal), recovery as above. *)
let micro_target =
  let site id func behavior recovery =
    Callsite.make ~id ~module_name:"m" ~func ~location:(Printf.sprintf "m.c:%d" (10 + id))
      ~stack:[ Printf.sprintf "op%d (m.c:%d)" id (10 + id); "main" ]
      ~blocks:[| id |] ~recovery_blocks:recovery ~behavior
  in
  let callsites =
    [|
      site 0 "read" (Behavior.always Behavior.Handled) [| 8 |];
      site 1 "close" (Behavior.always Behavior.Test_fails) [| 9 |];
      site 2 "write" (Behavior.always (Behavior.Crash { in_recovery = false })) [||];
      site 3 "malloc" (Behavior.always (Behavior.Crash { in_recovery = true })) [| 10 |];
      site 4 "fgets" (Behavior.always Behavior.Hang) [||];
    |]
  in
  let tests =
    [| Sim_test.make ~id:0 ~name:"t0" ~group:"g" ~trace:[| 0; 1; 0; 2; 3; 4 |] ~duration_ms:60.0 |]
  in
  Target.make ~name:"micro" ~version:"1" ~callsites ~tests ~total_blocks:11

let run ?nondet fault = Engine.run ?nondet micro_target fault
let fault ?errno ?retval func n = Fault.make ~test_id:0 ~func ~call_number:n ?errno ?retval ()

let covered o =
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) o.Outcome.coverage;
  List.rev !acc

(* --- Fault encoding --- *)

let test_fault_defaults () =
  let f = fault "malloc" 1 in
  checks "default errno" "ENOMEM" f.Fault.errno;
  checki "default retval" 0 f.Fault.retval;
  let g = fault "frobnicate" 1 in
  checks "unknown func errno" "EIO" g.Fault.errno

let test_fault_scenario_roundtrip () =
  let f = Fault.make ~test_id:3 ~func:"read" ~call_number:7 ~errno:"EIO" ~retval:(-1) () in
  match Fault.of_scenario (Fault.to_scenario f) with
  | Ok f' -> checkb "round-trip" true (Fault.equal f f')
  | Error e -> Alcotest.fail e

let test_fault_scenario_missing_field () =
  checkb "missing testId" true
    (Result.is_error (Fault.of_scenario [ ("function", Afex_faultspace.Value.Sym "read") ]))

(* --- Engine semantics --- *)

let test_no_injection_call_zero () =
  let o = run (fault "read" 0) in
  checkb "not triggered" false o.Outcome.triggered;
  checkb "passed" true (o.Outcome.status = Outcome.Passed);
  Alcotest.(check (list int)) "full normal coverage" [ 0; 1; 2; 3; 4 ] (covered o);
  checkf "nominal duration" 60.0 o.Outcome.duration_ms

let test_no_injection_beyond_count () =
  let o = run (fault "read" 3) in
  checkb "third read never happens" false o.Outcome.triggered;
  checkb "passes" true (o.Outcome.status = Outcome.Passed)

let test_no_injection_unknown_function () =
  let o = run (fault "socket" 1) in
  checkb "not triggered" false o.Outcome.triggered

let test_handled_fault () =
  let o = run (fault "read" 1) in
  checkb "triggered" true o.Outcome.triggered;
  checkb "still passes" true (o.Outcome.status = Outcome.Passed);
  checkb "recovery block covered" true (List.mem 8 (covered o));
  checkb "rest of test ran" true (List.mem 4 (covered o));
  (match o.Outcome.injection_stack with
  | Some (top :: _) -> checks "libc frame" "libc.so:read" top
  | Some [] | None -> Alcotest.fail "expected injection stack");
  checkb "no crash stack" true (o.Outcome.crash_stack = None)

let test_test_fails_fault () =
  let o = run (fault "close" 1) in
  checkb "failed" true (o.Outcome.status = Outcome.Test_failed);
  checkb "counts as failed" true (Outcome.failed o);
  checkb "recovery covered" true (List.mem 9 (covered o));
  checkb "later blocks not covered" false (List.mem 4 (covered o));
  checkb "earlier blocks covered" true (List.mem 0 (covered o));
  checkb "duration truncated" true (o.Outcome.duration_ms < 60.0)

let test_plain_crash () =
  let o = run (fault "write" 1) in
  checkb "crashed" true (o.Outcome.status = Outcome.Crashed);
  (match o.Outcome.crash_stack with
  | Some (top :: _) -> checks "crash at libc frame" "libc.so:write" top
  | Some [] | None -> Alcotest.fail "expected crash stack");
  checkb "no recovery blocks" false (List.mem 10 (covered o))

let test_crash_in_recovery () =
  let o = run (fault "malloc" 1) in
  checkb "crashed" true (o.Outcome.status = Outcome.Crashed);
  (match o.Outcome.crash_stack with
  | Some (top :: _) ->
      checkb "recovery frame on top" true
        (String.length top > 9 && String.sub top 0 9 = "recovery@")
  | Some [] | None -> Alcotest.fail "expected crash stack");
  checkb "recovery blocks covered before crash" true (List.mem 10 (covered o))

let test_hang_charged_timeout () =
  let o = run (fault "fgets" 1) in
  checkb "hung" true (o.Outcome.status = Outcome.Hung);
  checkf "timeout factor" (60.0 *. Engine.hang_timeout_factor) o.Outcome.duration_ms

let test_second_call_distinct_site () =
  (* The 2nd read is trace position 2 (same site 0 here, but the coverage
     prefix is longer than for the 1st call). *)
  let o1 = run (fault "read" 1) in
  let o2 = run (fault "read" 2) in
  checkb "both triggered" true (o1.Outcome.triggered && o2.Outcome.triggered);
  checkb "same stack (same site)" true
    (o1.Outcome.injection_stack = o2.Outcome.injection_stack)

let test_bad_test_id () =
  checkb "test id validated" true
    (try ignore (Engine.run micro_target (Fault.make ~test_id:9 ~func:"read" ~call_number:1 ())); false
     with Invalid_argument _ -> true)

let test_nondet_dodge () =
  (* dodge probability 1: a crash is always observed as a clean failure. *)
  let nondet = { Engine.rng = Rng.create 1; dodge_probability = 1.0 } in
  let o = Engine.run ~nondet micro_target (fault "write" 1) in
  checkb "crash dodged to failure" true (o.Outcome.status = Outcome.Test_failed);
  let o2 = Engine.run ~nondet micro_target (fault "close" 1) in
  checkb "failure dodged to pass" true (o2.Outcome.status = Outcome.Passed)

let test_nondet_zero_is_deterministic () =
  let nondet = { Engine.rng = Rng.create 1; dodge_probability = 0.0 } in
  let o = Engine.run ~nondet micro_target (fault "write" 1) in
  checkb "no dodge at p=0" true (o.Outcome.status = Outcome.Crashed)

let test_baseline_and_suite_coverage () =
  let o = Engine.baseline micro_target 0 in
  checkb "baseline passes" true (o.Outcome.status = Outcome.Passed);
  checki "suite coverage counts normal blocks" 5
    (Bitset.count (Engine.suite_coverage micro_target))

let test_errno_changes_reaction () =
  (* Build a site that only crashes on ENOMEM. *)
  let callsites =
    [|
      Callsite.make ~id:0 ~module_name:"m" ~func:"read" ~location:"m.c:1"
        ~stack:[ "f"; "main" ] ~blocks:[| 0 |] ~recovery_blocks:[| 1 |]
        ~behavior:
          (Behavior.with_errno Behavior.Handled
             [ ("EIO", Behavior.Crash { in_recovery = false }) ]);
    |]
  in
  let tests = [| Sim_test.make ~id:0 ~name:"t" ~group:"g" ~trace:[| 0 |] ~duration_ms:1.0 |] in
  let t = Target.make ~name:"e" ~version:"1" ~callsites ~tests ~total_blocks:2 in
  let benign = Engine.run t (Fault.make ~test_id:0 ~func:"read" ~call_number:1 ~errno:"EINTR" ()) in
  checkb "EINTR handled" true (benign.Outcome.status = Outcome.Passed);
  let crash = Engine.run t (Fault.make ~test_id:0 ~func:"read" ~call_number:1 ~errno:"EIO" ()) in
  checkb "EIO crashes" true (crash.Outcome.status = Outcome.Crashed)

(* --- Sensors --- *)

let obs status new_blocks =
  let o = run (fault "read" 0) in
  { Sensor.outcome = { o with Outcome.status }; new_blocks }

let test_sensor_standard_weights () =
  let s = Sensor.standard () in
  checkf "passed scores coverage only" 7.0 (s.Sensor.score (obs Outcome.Passed 7));
  checkf "failure adds 10" 10.0 (s.Sensor.score (obs Outcome.Test_failed 0));
  checkf "crash adds 30" 30.0 (s.Sensor.score (obs Outcome.Crashed 0));
  checkf "hang adds 40" 40.0 (s.Sensor.score (obs Outcome.Hung 0))

let test_sensor_custom_weights () =
  let s = Sensor.standard ~block_weight:0.0 ~fail_weight:1.0 ~crash_weight:99.0 () in
  checkf "custom crash weight" 100.0 (s.Sensor.score (obs Outcome.Crashed 50))

let test_sensor_composition () =
  let s = Sensor.weighted ~name:"mix" [ (Sensor.coverage_only, 2.0); (Sensor.failure_only, 5.0) ] in
  checkf "weighted sum" (2.0 *. 3.0 +. 5.0) (s.Sensor.score (obs Outcome.Crashed 3))

let test_sensor_relevance () =
  let s =
    Sensor.relevance_weighted Sensor.failure_only ~func_weight:(fun f ->
        if String.equal f "read" then 0.5 else 1.0)
  in
  (* The observation's fault is read (from the micro target run). *)
  checkf "scaled by func weight" 0.5 (s.Sensor.score (obs Outcome.Test_failed 0))

(* --- Plugin --- *)

let std_sub =
  Subspace.make
    [
      Axis.range "testId" ~lo:0 ~hi:4;
      Axis.symbols "function" [ "malloc"; "read" ];
      Axis.range "callNumber" ~lo:0 ~hi:3;
    ]

let test_plugin_fault_of_point () =
  match Plugin.fault_of_point std_sub (Point.of_list [ 2; 1; 3 ]) with
  | Ok f ->
      checki "testId" 2 f.Fault.test_id;
      checks "function" "read" f.Fault.func;
      checki "call" 3 f.Fault.call_number;
      checks "errno from profile" "EINTR" f.Fault.errno
  | Error e -> Alcotest.fail e

let test_plugin_point_of_fault_roundtrip () =
  Seq.iter
    (fun p ->
      let f = Plugin.fault_of_point_exn std_sub p in
      match Plugin.point_of_fault std_sub f with
      | Some p' -> checkb "round-trip" true (Point.equal p p')
      | None -> Alcotest.fail "no inverse")
    (Subspace.enumerate std_sub)

let test_plugin_with_errno_axis () =
  let sub =
    Subspace.make
      [
        Axis.range "testId" ~lo:0 ~hi:1;
        Axis.symbols "function" [ "read" ];
        Axis.symbols "errno" [ "EIO"; "EAGAIN" ];
        Axis.range "callNumber" ~lo:1 ~hi:2;
      ]
  in
  match Plugin.fault_of_point sub (Point.of_list [ 0; 0; 1; 0 ]) with
  | Ok f -> checks "errno from axis" "EAGAIN" f.Fault.errno
  | Error e -> Alcotest.fail e


(* --- Multifault --- *)

module Multifault = Afex_injector.Multifault

(* A target with a latent compound bug:
     site 0: read, Handled           (recovery block 4)
     site 1: write, Crash_if_recovering (recovery block 5)
     site 2: close, Test_fails       (recovery block 6)
   Test 0 trace: [0; 1; 2]  *)
let latent_target =
  let site id func behavior recovery =
    Callsite.make ~id ~module_name:"m" ~func ~location:(Printf.sprintf "m.c:%d" (20 + id))
      ~stack:[ Printf.sprintf "op%d" id; "main" ] ~blocks:[| id |]
      ~recovery_blocks:recovery ~behavior
  in
  let callsites =
    [|
      site 0 "read" (Behavior.always Behavior.Handled) [| 4 |];
      site 1 "write" (Behavior.always Behavior.Crash_if_recovering) [| 5 |];
      site 2 "close" (Behavior.always Behavior.Test_fails) [| 6 |];
    |]
  in
  let tests =
    [| Sim_test.make ~id:0 ~name:"t" ~group:"g" ~trace:[| 0; 1; 2 |] ~duration_ms:30.0 |]
  in
  Target.make ~name:"latent" ~version:"1" ~callsites ~tests ~total_blocks:7

let test_multifault_scenario_roundtrip () =
  let mf = Multifault.make ~test_id:3 ~arms:[ ("read", 2); ("malloc", 7) ] in
  match Multifault.of_scenario (Multifault.to_scenario mf) with
  | Ok mf' -> checkb "round-trip" true (mf = mf')
  | Error e -> Alcotest.fail e

let test_multifault_of_faults () =
  let f1 = Fault.make ~test_id:1 ~func:"read" ~call_number:1 () in
  let f2 = Fault.make ~test_id:1 ~func:"write" ~call_number:2 () in
  (match Multifault.of_faults [ f1; f2 ] with
  | Ok mf ->
      checki "two arms" 2 (List.length mf.Multifault.arms);
      checkb "faults round-trip" true (Multifault.to_faults mf = [ f1; f2 ])
  | Error e -> Alcotest.fail e);
  let f3 = Fault.make ~test_id:2 ~func:"close" ~call_number:1 () in
  checkb "mixed tests rejected" true (Result.is_error (Multifault.of_faults [ f1; f3 ]));
  checkb "empty rejected" true (Result.is_error (Multifault.of_faults []))

let test_multifault_suffixed_scenario () =
  (* Compound-space attribute names carry suffixes. *)
  let scenario =
    [
      ("testId", Afex_faultspace.Value.Int 0);
      ("function", Afex_faultspace.Value.Sym "read");
      ("callNumber", Afex_faultspace.Value.Int 1);
      ("function2", Afex_faultspace.Value.Sym "write");
      ("callNumber2", Afex_faultspace.Value.Int 1);
    ]
  in
  match Multifault.of_scenario scenario with
  | Ok mf ->
      checki "two arms" 2 (List.length mf.Multifault.arms);
      checks "second arm func" "write"
        (List.nth mf.Multifault.arms 1).Multifault.func
  | Error e -> Alcotest.fail e

let test_multifault_of_scenario_errors () =
  let open Afex_faultspace in
  let err scenario =
    match Multifault.of_scenario scenario with
    | Error e -> e
    | Ok _ -> Alcotest.fail "undecodable scenario accepted"
  in
  (* Per-arm attributes before any "function" binding opened a group. *)
  checks "dangling callNumber" "callNumber before any function"
    (err [ ("testId", Value.Int 0); ("callNumber", Value.Int 1) ]);
  checks "dangling suffixed callNumber" "callNumber2 before any function"
    (err [ ("testId", Value.Int 0); ("callNumber2", Value.Int 1) ]);
  checks "dangling errno" "errno before any function"
    (err [ ("testId", Value.Int 0); ("errno", Value.Sym "EIO") ]);
  checks "dangling retval" "retval before any function"
    (err [ ("testId", Value.Int 0); ("retval", Value.Int (-1)) ]);
  (* Structurally empty scenarios. *)
  checks "missing testId" "missing testId"
    (err [ ("function", Value.Sym "read"); ("callNumber", Value.Int 1) ]);
  checks "empty arm list" "no fault arms" (err [ ("testId", Value.Int 0) ]);
  checks "empty scenario" "missing testId" (err []);
  (* Unknown names, and known names carrying the wrong value shape, both
     fall through to the same rejection. *)
  checks "unknown attribute" "unexpected attribute bogus"
    (err
       [
         ("testId", Value.Int 0);
         ("function", Value.Sym "read");
         ("bogus", Value.Sym "x");
       ]);
  checks "ill-typed callNumber" "unexpected attribute callNumber"
    (err
       [
         ("testId", Value.Int 0);
         ("function", Value.Sym "read");
         ("callNumber", Value.Sym "one");
       ]);
  checks "ill-typed function" "unexpected attribute function"
    (err [ ("testId", Value.Int 0); ("function", Value.Int 3) ]);
  (* The error reported is the first one encountered, even when a valid
     arm follows. *)
  checks "first error wins" "errno before any function"
    (err
       [
         ("testId", Value.Int 0);
         ("errno", Value.Sym "EIO");
         ("function", Value.Sym "read");
       ])

let test_multifault_of_faults_errors () =
  let f1 = Fault.make ~test_id:1 ~func:"read" ~call_number:1 () in
  let f3 = Fault.make ~test_id:2 ~func:"close" ~call_number:1 () in
  (match Multifault.of_faults [] with
  | Error e -> checks "empty message" "empty fault list" e
  | Ok _ -> Alcotest.fail "empty fault list accepted");
  (match Multifault.of_faults [ f1; f3 ] with
  | Error e -> checks "mixed message" "multi-fault scenario spans several tests" e
  | Ok _ -> Alcotest.fail "mixed test ids accepted");
  (* Mixed ids are rejected wherever the intruder sits. *)
  checkb "mixed ids rejected in any position" true
    (Result.is_error (Multifault.of_faults [ f1; f1; f3 ])
    && Result.is_error (Multifault.of_faults [ f3; f1; f1 ]));
  (* A single fault is a valid (degenerate) multi-fault scenario. *)
  match Multifault.of_faults [ f1 ] with
  | Ok mf ->
      checki "one arm" 1 (List.length mf.Multifault.arms);
      checkb "round-trips" true (Multifault.to_faults mf = [ f1 ])
  | Error e -> Alcotest.fail e

let test_multifault_single_probe_misses_latent () =
  (* Each single fault alone: read handled, write handled (not recovering),
     close fails cleanly — no crash anywhere. *)
  List.iter
    (fun func ->
      let o = Engine.run latent_target (Fault.make ~test_id:0 ~func ~call_number:1 ()) in
      checkb (func ^ " never crashes alone") false (o.Outcome.status = Outcome.Crashed))
    [ "read"; "write"; "close" ]

let test_multifault_compound_triggers_latent () =
  let mf = Multifault.make ~test_id:0 ~arms:[ ("read", 1); ("write", 1) ] in
  let o = Multifault.run latent_target mf in
  checkb "crashes under compound load" true (o.Outcome.status = Outcome.Crashed);
  (match o.Outcome.crash_stack with
  | Some (top :: _) ->
      checkb "crash inside recovery" true
        (String.length top > 9 && String.sub top 0 9 = "recovery@")
  | Some [] | None -> Alcotest.fail "expected crash stack");
  checks "terminal fault is the write arm" "write" o.Outcome.fault.Fault.func;
  (* Both recovery paths ran before the crash. *)
  checkb "first recovery covered" true (Bitset.mem o.Outcome.coverage 4);
  checkb "latent recovery covered" true (Bitset.mem o.Outcome.coverage 5)

let test_multifault_order_matters () =
  (* write fault first (no recovery in flight yet -> handled), then the
     read fault is handled too: the run passes. *)
  let mf = Multifault.make ~test_id:0 ~arms:[ ("write", 1) ] in
  let o = Multifault.run latent_target mf in
  checkb "write alone handled" true (o.Outcome.status = Outcome.Passed)

let test_multifault_terminal_stops_trace () =
  (* close fails the test before any later events would run. *)
  let mf = Multifault.make ~test_id:0 ~arms:[ ("close", 1) ] in
  let o = Multifault.run latent_target mf in
  checkb "test failed" true (o.Outcome.status = Outcome.Test_failed);
  checkb "close recovery covered" true (Bitset.mem o.Outcome.coverage 6)

let test_multifault_no_trigger_passes () =
  let mf = Multifault.make ~test_id:0 ~arms:[ ("read", 9) ] in
  let o = Multifault.run latent_target mf in
  checkb "passes" true (o.Outcome.status = Outcome.Passed);
  checkb "not triggered" false o.Outcome.triggered

let test_multifault_validation () =
  checkb "empty arms rejected" true
    (try ignore (Multifault.run latent_target { Multifault.test_id = 0; arms = [] }); false
     with Invalid_argument _ -> true);
  let mf = Multifault.make ~test_id:9 ~arms:[ ("read", 1) ] in
  checkb "bad test id rejected" true
    (try ignore (Multifault.run latent_target mf); false
     with Invalid_argument _ -> true)

let test_multifault_agrees_with_engine_on_single () =
  (* A one-arm multifault must agree with the single-fault engine on the
     micro target for every behaviour kind. *)
  List.iter
    (fun (func, n) ->
      let fault = Fault.make ~test_id:0 ~func ~call_number:n () in
      let single = Engine.run micro_target fault in
      let multi =
        Multifault.run micro_target
          { Multifault.test_id = 0; arms = [ Multifault.{ func; call_number = n; errno = fault.Fault.errno; retval = fault.Fault.retval } ] }
      in
      checkb (func ^ " same status") true (single.Outcome.status = multi.Outcome.status);
      checkb (func ^ " same coverage") true
        (Bitset.equal single.Outcome.coverage multi.Outcome.coverage))
    [ ("read", 1); ("close", 1); ("write", 1); ("malloc", 1); ("fgets", 1); ("read", 9) ]

let test_plugin_multifault_of_point () =
  let sub =
    Subspace.make
      [
        Axis.range "testId" ~lo:0 ~hi:4;
        Axis.symbols "function" [ "read"; "write" ];
        Axis.range "callNumber" ~lo:1 ~hi:3;
        Axis.symbols "function2" [ "read"; "write" ];
        Axis.range "callNumber2" ~lo:1 ~hi:3;
      ]
  in
  match Plugin.multifault_of_point sub (Point.of_list [ 2; 0; 1; 1; 2 ]) with
  | Ok mf ->
      checki "test id" 2 mf.Multifault.test_id;
      checki "two arms" 2 (List.length mf.Multifault.arms);
      checks "arm1" "read" (List.nth mf.Multifault.arms 0).Multifault.func;
      checki "arm2 call" 3 (List.nth mf.Multifault.arms 1).Multifault.call_number
  | Error e -> Alcotest.fail e

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("fault defaults", test_fault_defaults);
      ("fault scenario roundtrip", test_fault_scenario_roundtrip);
      ("fault scenario missing field", test_fault_scenario_missing_field);
      ("no injection: call 0", test_no_injection_call_zero);
      ("no injection: beyond count", test_no_injection_beyond_count);
      ("no injection: unknown function", test_no_injection_unknown_function);
      ("handled fault", test_handled_fault);
      ("test-fails fault", test_test_fails_fault);
      ("plain crash", test_plain_crash);
      ("crash in recovery", test_crash_in_recovery);
      ("hang charged timeout", test_hang_charged_timeout);
      ("second call same site", test_second_call_distinct_site);
      ("bad test id", test_bad_test_id);
      ("nondeterministic dodge", test_nondet_dodge);
      ("nondet p=0 deterministic", test_nondet_zero_is_deterministic);
      ("baseline and suite coverage", test_baseline_and_suite_coverage);
      ("errno changes reaction", test_errno_changes_reaction);
      ("sensor standard weights", test_sensor_standard_weights);
      ("sensor custom weights", test_sensor_custom_weights);
      ("sensor composition", test_sensor_composition);
      ("sensor relevance", test_sensor_relevance);
      ("plugin fault_of_point", test_plugin_fault_of_point);
      ("plugin point/fault roundtrip", test_plugin_point_of_fault_roundtrip);
      ("plugin errno axis", test_plugin_with_errno_axis);
      ("multifault scenario roundtrip", test_multifault_scenario_roundtrip);
      ("multifault of_faults", test_multifault_of_faults);
      ("multifault suffixed scenario", test_multifault_suffixed_scenario);
      ("multifault of_scenario error paths", test_multifault_of_scenario_errors);
      ("multifault of_faults error paths", test_multifault_of_faults_errors);
      ("multifault: single probes miss latent bug", test_multifault_single_probe_misses_latent);
      ("multifault: compound triggers latent bug", test_multifault_compound_triggers_latent);
      ("multifault: order matters", test_multifault_order_matters);
      ("multifault: terminal stops trace", test_multifault_terminal_stops_trace);
      ("multifault: no trigger passes", test_multifault_no_trigger_passes);
      ("multifault validation", test_multifault_validation);
      ("multifault agrees with engine on single", test_multifault_agrees_with_engine_on_single);
      ("plugin multifault_of_point", test_plugin_multifault_of_point);
    ]
