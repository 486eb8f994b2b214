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

(* --- Run-wise walks against call-by-call references ---

   [Engine.run], [Sim_test.nth_call] and [Sim_test.calls_to] step over a
   run of one call site at a time, and covering allocates no closure.
   The walks below are the call-by-call versions they replaced, kept as
   references: on every input, every outcome field must agree, the
   coverage bytes included. *)

module Reference = struct
  let calls_to (t : Sim_test.t) ~site_func func =
    Array.fold_left
      (fun acc site -> if String.equal (site_func site) func then acc + 1 else acc)
      0 t.Sim_test.trace

  let nth_call (t : Sim_test.t) ~site_func func ~n =
    if n <= 0 then None
    else begin
      let remaining = ref n and result = ref None and i = ref 0 in
      let len = Array.length t.Sim_test.trace in
      while !result = None && !i < len do
        let site = t.Sim_test.trace.(!i) in
        if String.equal (site_func site) func then begin
          decr remaining;
          if !remaining = 0 then result := Some (!i, site)
        end;
        incr i
      done;
      !result
    end

  let cover_site coverage (site : Callsite.t) =
    Array.iter (fun b -> Bitset.set coverage b) site.Callsite.blocks

  let cover_recovery coverage (site : Callsite.t) =
    Array.iter (fun b -> Bitset.set coverage b) site.Callsite.recovery_blocks

  let full_run target (test : Sim_test.t) coverage =
    Array.iter (fun s -> cover_site coverage (Target.callsite target s)) test.Sim_test.trace

  let react ?nondet (site : Callsite.t) ~errno =
    let reaction = Behavior.reaction_for site.Callsite.behavior ~errno in
    match nondet with
    | Some { Engine.rng; dodge_probability } when dodge_probability > 0.0 ->
        if Rng.bernoulli rng dodge_probability then
          match reaction with
          | Behavior.Crash _ -> Behavior.Test_fails
          | Behavior.Test_fails -> Behavior.Handled
          | Behavior.Hang -> Behavior.Test_fails
          | (Behavior.Handled | Behavior.Crash_if_recovering) as r -> r
        else reaction
    | Some _ | None -> reaction

  let engine_run ?nondet target (fault : Fault.t) =
    let test = Target.test target fault.Fault.test_id in
    let coverage = Bitset.create (Target.total_blocks target) in
    let injection =
      if fault.Fault.call_number <= 0 then None
      else
        nth_call test ~site_func:(Target.site_func target) fault.Fault.func
          ~n:fault.Fault.call_number
    in
    match injection with
    | None ->
        full_run target test coverage;
        {
          Outcome.fault;
          status = Outcome.Passed;
          triggered = false;
          coverage;
          injection_stack = None;
          crash_stack = None;
          duration_ms = test.Sim_test.duration_ms;
        }
    | Some (pos, site_id) -> (
        let site = Target.callsite target site_id in
        for i = 0 to pos do
          cover_site coverage (Target.callsite target test.Sim_test.trace.(i))
        done;
        let reaction = react ?nondet site ~errno:fault.Fault.errno in
        let trace_len = Array.length test.Sim_test.trace in
        let progress =
          if trace_len = 0 then 1.0 else float_of_int (pos + 1) /. float_of_int trace_len
        in
        let finish status ~rest_runs ~recovery ~crash_stack ~duration =
          if recovery then cover_recovery coverage site;
          if rest_runs then full_run target test coverage;
          {
            Outcome.fault;
            status;
            triggered = true;
            coverage;
            injection_stack = Some (Callsite.injection_stack site);
            crash_stack;
            duration_ms = duration;
          }
        in
        let nominal = test.Sim_test.duration_ms in
        match reaction with
        | Behavior.Crash_if_recovering | Behavior.Handled ->
            finish Outcome.Passed ~rest_runs:true ~recovery:true ~crash_stack:None
              ~duration:nominal
        | Behavior.Test_fails ->
            finish Outcome.Test_failed ~rest_runs:false ~recovery:true ~crash_stack:None
              ~duration:(nominal *. progress)
        | Behavior.Crash { in_recovery } ->
            let base = Callsite.injection_stack site in
            let crash_stack =
              if in_recovery then Some (("recovery@" ^ site.Callsite.location) :: base)
              else Some base
            in
            finish Outcome.Crashed ~rest_runs:false ~recovery:in_recovery ~crash_stack
              ~duration:(nominal *. progress)
        | Behavior.Hang ->
            finish Outcome.Hung ~rest_runs:false ~recovery:false ~crash_stack:None
              ~duration:(nominal *. Engine.hang_timeout_factor))

  let multifault_run ?nondet target (t : Multifault.t) =
    let fault_of_arm (a : Multifault.arm) =
      Fault.make ~test_id:t.Multifault.test_id ~func:a.Multifault.func
        ~call_number:a.Multifault.call_number ~errno:a.Multifault.errno
        ~retval:a.Multifault.retval ()
    in
    let test = Target.test target t.Multifault.test_id in
    let trace = test.Sim_test.trace in
    let coverage = Bitset.create (Target.total_blocks target) in
    let counts = Hashtbl.create 8 in
    let pending = ref t.Multifault.arms in
    let recovering = ref false in
    let last_triggered = ref None in
    let outcome_of status ~fault ~site ~progress ~crash_stack =
      let nominal = test.Sim_test.duration_ms in
      let duration =
        match status with
        | Outcome.Hung -> nominal *. Engine.hang_timeout_factor
        | Outcome.Passed -> nominal
        | Outcome.Test_failed | Outcome.Crashed -> nominal *. progress
      in
      {
        Outcome.fault;
        status;
        triggered = (match site with Some _ -> true | None -> !last_triggered <> None);
        coverage;
        injection_stack =
          (match (site, !last_triggered) with
          | Some s, _ -> Some (Callsite.injection_stack s)
          | None, Some (_, s) -> Some (Callsite.injection_stack s)
          | None, None -> None);
        crash_stack;
        duration_ms = duration;
      }
    in
    let n = Array.length trace in
    let result = ref None in
    let i = ref 0 in
    while !result = None && !i < n do
      let site = Target.callsite target trace.(!i) in
      cover_site coverage site;
      let func = site.Callsite.func in
      let count = 1 + Option.value (Hashtbl.find_opt counts func) ~default:0 in
      Hashtbl.replace counts func count;
      (match
         List.find_opt
           (fun (a : Multifault.arm) ->
             String.equal a.Multifault.func func && a.Multifault.call_number = count)
           !pending
       with
      | None -> ()
      | Some arm -> (
          pending := List.filter (fun a -> a != arm) !pending;
          last_triggered := Some (arm, site);
          let reaction = react ?nondet site ~errno:arm.Multifault.errno in
          let progress = float_of_int (!i + 1) /. float_of_int (max 1 n) in
          let fault = fault_of_arm arm in
          match reaction with
          | Behavior.Handled ->
              cover_recovery coverage site;
              recovering := true
          | Behavior.Crash_if_recovering ->
              if !recovering then begin
                cover_recovery coverage site;
                let crash_stack =
                  Some (("recovery@" ^ site.Callsite.location) :: Callsite.injection_stack site)
                in
                result :=
                  Some
                    (outcome_of Outcome.Crashed ~fault ~site:(Some site) ~progress
                       ~crash_stack)
              end
              else begin
                cover_recovery coverage site;
                recovering := true
              end
          | Behavior.Test_fails ->
              cover_recovery coverage site;
              result :=
                Some
                  (outcome_of Outcome.Test_failed ~fault ~site:(Some site) ~progress
                     ~crash_stack:None)
          | Behavior.Crash { in_recovery } ->
              if in_recovery then cover_recovery coverage site;
              let crash_stack =
                let base = Callsite.injection_stack site in
                if in_recovery then Some (("recovery@" ^ site.Callsite.location) :: base)
                else Some base
              in
              result :=
                Some
                  (outcome_of Outcome.Crashed ~fault ~site:(Some site) ~progress ~crash_stack)
          | Behavior.Hang ->
              result :=
                Some
                  (outcome_of Outcome.Hung ~fault ~site:(Some site) ~progress
                     ~crash_stack:None)));
      incr i
    done;
    match !result with
    | Some outcome -> outcome
    | None ->
        let fault =
          match !last_triggered with
          | Some (arm, _) -> fault_of_arm arm
          | None -> fault_of_arm (List.hd t.Multifault.arms)
        in
        outcome_of Outcome.Passed ~fault ~site:None ~progress:1.0 ~crash_stack:None
end

let walk_targets =
  let module S = Afex_simtarget in
  lazy
    [
      ("mysql", S.Mysql.target ());
      ("apache", S.Apache.target ());
      ("coreutils", S.Coreutils.target ());
      ("mongodb-0.8", S.Mongodb.target_v08 ());
      ("mongodb-2.0", S.Mongodb.target_v20 ());
    ]

let same_outcome (a : Outcome.t) (b : Outcome.t) =
  Fault.equal a.Outcome.fault b.Outcome.fault
  && a.Outcome.status = b.Outcome.status
  && a.Outcome.triggered = b.Outcome.triggered
  && Bitset.equal a.Outcome.coverage b.Outcome.coverage
  && a.Outcome.injection_stack = b.Outcome.injection_stack
  && a.Outcome.crash_stack = b.Outcome.crash_stack
  && Int64.equal
       (Int64.bits_of_float a.Outcome.duration_ms)
       (Int64.bits_of_float b.Outcome.duration_ms)

(* The functions a test calls, one libc function it never calls, and
   one no profile knows. *)
let walk_functions target (test : Sim_test.t) =
  let called =
    List.sort_uniq String.compare
      (Array.to_list (Array.map (Target.site_func target) test.Sim_test.trace))
  in
  let uncalled =
    List.find_opt (fun f -> not (List.mem f called)) Afex_simtarget.Libc.ordered_names
  in
  called @ Option.to_list uncalled @ [ "frobnicate" ]

(* Call numbers at the edges of the runs of one call site: 0 and 1, the
   last call of every run and the first call after it, the call count
   and one past it. *)
let edge_calls target (test : Sim_test.t) func =
  let trace = test.Sim_test.trace in
  let count = ref 0 and edges = ref [ 0; 1 ] in
  Array.iteri
    (fun i s ->
      if String.equal (Target.site_func target s) func then begin
        incr count;
        if i + 1 = Array.length trace || trace.(i + 1) <> s then
          edges := !count :: (!count + 1) :: !edges
      end)
    trace;
  List.sort_uniq compare (!count :: (!count + 1) :: !edges)

(* The first and the last test, and [k] drawn at random. *)
let sample_tests rng target k =
  let n = Target.n_tests target in
  List.sort_uniq compare (0 :: (n - 1) :: List.init k (fun _ -> Rng.int rng n))

let test_sim_test_walks_match_reference () =
  let rng = Rng.create 41 in
  List.iter
    (fun (name, target) ->
      let site_func = Target.site_func target in
      List.iter
        (fun id ->
          let test = Target.test target id in
          List.iter
            (fun func ->
              let what = Printf.sprintf "%s test %d %s" name id func in
              checki (what ^ " calls_to")
                (Reference.calls_to test ~site_func func)
                (Sim_test.calls_to test ~site_func func);
              List.iter
                (fun n ->
                  if
                    Reference.nth_call test ~site_func func ~n
                    <> Sim_test.nth_call test ~site_func func ~n
                  then Alcotest.failf "%s: nth_call ~n:%d differs" what n)
                (-1 :: edge_calls target test func))
            (walk_functions target test))
        (sample_tests rng target 60))
    (Lazy.force walk_targets)

(* Random faults, then every edge call of every function of a sample of
   tests. Errnos include every override a callsite of the target names,
   so non-default reactions are reached. *)
let walk_faults rng target =
  let errnos =
    List.sort_uniq String.compare
      ("EIO" :: "EINTR"
      :: List.concat_map
           (fun (site : Callsite.t) -> List.map fst site.Callsite.behavior.Behavior.by_errno)
           (Array.to_list (Target.callsites target)))
  in
  let errno () =
    if Rng.bernoulli rng 0.5 then None
    else Some (List.nth errnos (Rng.int rng (List.length errnos)))
  in
  let random =
    List.init 800 (fun _ ->
        let test_id = Rng.int rng (Target.n_tests target) in
        let test = Target.test target test_id in
        let funcs = walk_functions target test in
        let func = List.nth funcs (Rng.int rng (List.length funcs)) in
        let count = Reference.calls_to test ~site_func:(Target.site_func target) func in
        Fault.make ~test_id ~func ~call_number:(Rng.int rng (count + 3)) ?errno:(errno ()) ())
  in
  let edges =
    List.concat_map
      (fun test_id ->
        let test = Target.test target test_id in
        List.concat_map
          (fun func ->
            List.map
              (fun call_number -> Fault.make ~test_id ~func ~call_number ?errno:(errno ()) ())
              (edge_calls target test func))
          (walk_functions target test))
      (sample_tests rng target 25)
  in
  random @ edges

(* Both walks draw from RNGs made from one seed, so equal draws stay in
   step; the RNGs must end in the same state. *)
let nondet_modes = [ None; Some 0.0; Some 0.5 ]

let nondet_pair mode =
  match mode with
  | None -> (None, None, fun () -> ())
  | Some p ->
      let a = Rng.create 1234 and b = Rng.create 1234 in
      ( Some { Engine.rng = a; dodge_probability = p },
        Some { Engine.rng = b; dodge_probability = p },
        fun () -> checkb "RNGs in step" true (Int64.equal (Rng.state a) (Rng.state b)) )

let test_engine_matches_reference () =
  let rng = Rng.create 42 in
  List.iter
    (fun (name, target) ->
      let faults = walk_faults rng target in
      List.iter
        (fun mode ->
          let ref_nondet, nondet, in_step = nondet_pair mode in
          List.iter
            (fun f ->
              let expected = Reference.engine_run ?nondet:ref_nondet target f in
              if not (same_outcome expected (Engine.run ?nondet target f)) then
                Alcotest.failf "%s: Engine.run differs on %s" name (Fault.to_string f))
            faults;
          in_step ())
        nondet_modes)
    (Lazy.force walk_targets)

let test_multifault_matches_reference () =
  let rng = Rng.create 43 in
  List.iter
    (fun (name, target) ->
      let faults = Array.of_list (walk_faults rng target) in
      (* One to three arms on one test, from the faults aimed at it. *)
      let by_test = Hashtbl.create 64 in
      Array.iter
        (fun (f : Fault.t) -> Hashtbl.add by_test f.Fault.test_id f)
        faults;
      let scenarios =
        List.init 600 (fun _ ->
            let first = faults.(Rng.int rng (Array.length faults)) in
            let mine = Array.of_list (Hashtbl.find_all by_test first.Fault.test_id) in
            let others =
              List.init (Rng.int rng 3) (fun _ -> mine.(Rng.int rng (Array.length mine)))
            in
            match Multifault.of_faults (first :: others) with
            | Ok mf -> mf
            | Error m -> Alcotest.fail m)
      in
      List.iter
        (fun mode ->
          let ref_nondet, nondet, in_step = nondet_pair mode in
          List.iter
            (fun mf ->
              let expected = Reference.multifault_run ?nondet:ref_nondet target mf in
              if not (same_outcome expected (Multifault.run ?nondet target mf)) then
                Alcotest.failf "%s: Multifault.run differs on %s" name
                  (Format.asprintf "%a" Multifault.pp mf))
            scenarios;
          in_step ())
        nondet_modes)
    (Lazy.force walk_targets)

(* The engine keeps no state between runs, so domains may share a
   target. *)
let test_engine_on_two_domains () =
  let target = List.assoc "mysql" (Lazy.force walk_targets) in
  let faults = walk_faults (Rng.create 44) target in
  let sequential = List.map (Engine.run target) faults in
  let run () = List.map (Engine.run target) faults in
  let a = Domain.spawn run and b = Domain.spawn run in
  let a = Domain.join a and b = Domain.join b in
  checkb "first domain matches sequential" true (List.for_all2 same_outcome sequential a);
  checkb "second domain matches sequential" true (List.for_all2 same_outcome sequential b)

(* errno and retval are looked up before they are decoded; the errors of
   the required attributes are unchanged. *)
let test_fault_of_scenario_messages () =
  let module V = Afex_faultspace.Value in
  let base =
    [ ("testId", V.Int 2); ("function", V.Sym "read"); ("callNumber", V.Int 3) ]
  in
  let error s = match Fault.of_scenario s with Ok _ -> "ok" | Error m -> m in
  let without name = List.remove_assoc name base in
  let with_ name v = (name, v) :: without name in
  checks "missing testId" "missing attribute testId" (error (without "testId"));
  checks "missing function" "missing attribute function" (error (without "function"));
  checks "missing callNumber" "missing attribute callNumber" (error (without "callNumber"));
  checks "first error wins" "missing attribute testId" (error [ ("retval", V.Int 1) ]);
  checks "ill-typed testId" "testId: expected integer, got read"
    (error (with_ "testId" (V.Sym "read")));
  checks "ill-typed function" "function: expected symbol, got <1,2>"
    (error (with_ "function" (V.Pair (1, 2))));
  checks "ill-typed callNumber" "callNumber: expected integer, got <1,2>"
    (error (with_ "callNumber" (V.Pair (1, 2))));
  let default = Fault.make ~test_id:2 ~func:"read" ~call_number:3 () in
  (match Fault.of_scenario base with
  | Ok f -> checkb "errno and retval default" true (Fault.equal default f)
  | Error m -> Alcotest.fail m);
  (match Fault.of_scenario (base @ [ ("errno", V.Int 5); ("retval", V.Int 7) ]) with
  | Ok f ->
      checks "an integer errno reads as its digits" "5" f.Fault.errno;
      checki "retval given" 7 f.Fault.retval
  | Error m -> Alcotest.fail m);
  match
    Fault.of_scenario
      (base @ [ ("errno", V.Pair (1, 2)); ("retval", V.Sym "x"); ("function", V.Sym "w") ])
  with
  | Ok f -> checkb "ill-typed errno and retval fall back" true (Fault.equal default f)
  | Error m -> Alcotest.fail m

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
      ("sim_test walks match call-by-call reference", test_sim_test_walks_match_reference);
      ("engine matches call-by-call reference", test_engine_matches_reference);
      ("multifault matches call-by-call reference", test_multifault_matches_reference);
      ("engine on two domains matches sequential", test_engine_on_two_domains);
      ("fault of_scenario error messages", test_fault_of_scenario_messages);
    ]
