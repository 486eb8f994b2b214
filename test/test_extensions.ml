(* Tests for the extensions beyond the paper's core evaluation: static
   analysis seeding, dynamic sigma, union-space search, precision
   assessment, result export, and compound spaces. *)

module Analyzer = Afex_simtarget.Analyzer
module Target = Afex_simtarget.Target
module Callsite = Afex_simtarget.Callsite
module Behavior = Afex_simtarget.Behavior
module Apache = Afex_simtarget.Apache
module Spaces = Afex_simtarget.Spaces
module Libc = Afex_simtarget.Libc
module Subspace = Afex_faultspace.Subspace
module Space = Afex_faultspace.Space
module Point = Afex_faultspace.Point
module Fault = Afex_injector.Fault
module Engine = Afex_injector.Engine
module Sensor = Afex_injector.Sensor
module Config = Afex.Config
module Session = Afex.Session
module Seeding = Afex.Seeding
module Assess = Afex.Assess
module Test_case = Afex.Test_case
module Export = Afex_report.Export

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

(* --- Analyzer --- *)

let test_analyzer_full_recall_full_precision () =
  let target = Apache.target () in
  let findings = Analyzer.analyze ~recall:1.0 ~precision:1.0 target in
  let fragile =
    Array.to_list (Target.callsites target)
    |> List.filter (fun (s : Callsite.t) ->
           not (Behavior.is_benign s.Callsite.behavior.Behavior.default))
  in
  checki "perfect analyzer finds exactly the fragile sites"
    (List.length fragile) (List.length findings);
  List.iter
    (fun (f : Analyzer.finding) ->
      let site = Target.callsite target f.Analyzer.site in
      checkb "flagged site is fragile" false
        (Behavior.is_benign site.Callsite.behavior.Behavior.default))
    findings

let test_analyzer_imperfect () =
  let target = Apache.target () in
  let perfect = List.length (Analyzer.analyze ~recall:1.0 ~precision:1.0 target) in
  let findings = Analyzer.analyze ~recall:0.5 ~precision:0.5 target in
  let true_positives =
    List.length
      (List.filter
         (fun (f : Analyzer.finding) ->
           let site = Target.callsite target f.Analyzer.site in
           not (Behavior.is_benign site.Callsite.behavior.Behavior.default))
         findings)
  in
  let fp = List.length findings - true_positives in
  checkb "misses some fragile sites" true (true_positives < perfect);
  checkb "has false positives" true (fp > 0)

let test_analyzer_deterministic () =
  let target = Apache.target () in
  let a = Analyzer.analyze ~seed:5 target and b = Analyzer.analyze ~seed:5 target in
  checkb "same findings for same seed" true (a = b)

let test_analyzer_reaching_injections () =
  let target = Apache.target () in
  let findings = Analyzer.analyze ~recall:1.0 ~precision:1.0 target in
  let finding =
    List.find
      (fun f -> Analyzer.reaching_injections target f <> [])
      findings
  in
  List.iter
    (fun (test_id, call_number) ->
      (* Injecting at the suggested coordinates must hit the flagged site. *)
      let fault = Fault.make ~test_id ~func:finding.Analyzer.func ~call_number () in
      let o = Engine.run target fault in
      checkb "suggested injection triggers" true o.Afex_injector.Outcome.triggered;
      match o.Afex_injector.Outcome.injection_stack with
      | Some stack ->
          let site = Target.callsite target finding.Analyzer.site in
          checkb "hits the flagged site" true (stack = Callsite.injection_stack site)
      | None -> Alcotest.fail "no injection stack")
    (List.filteri (fun i _ -> i < 5) (Analyzer.reaching_injections target finding))

(* --- Seeding --- *)

let test_seeding_points_valid () =
  let target = Apache.target () in
  let sub = Apache.space () in
  let findings = Analyzer.analyze ~recall:1.0 ~precision:1.0 target in
  let seeds = Seeding.points_for sub target findings ~max_seeds:25 in
  checki "respects budget" 25 (List.length seeds);
  List.iter (fun p -> checkb "in space" true (Subspace.mem sub p)) seeds;
  checki "no duplicates" 25
    (List.length (List.sort_uniq compare (List.map Point.key seeds)))

let test_seeding_executed_first () =
  let target = Apache.target () in
  let sub = Apache.space () in
  let findings = Analyzer.analyze ~recall:1.0 ~precision:1.0 target in
  let seeds = Seeding.points_for sub target findings ~max_seeds:10 in
  let config =
    { (Config.fitness_guided ~seed:9 ()) with Config.initial_seeds = seeds }
  in
  let r = Session.run ~iterations:10 config sub (Afex.Executor.of_target target) in
  let executed_keys = List.map (fun c -> Point.key c.Test_case.point) r.Session.executed in
  Alcotest.(check (list string))
    "the first iterations run the seeds in order"
    (List.map Point.key seeds) executed_keys

let test_seeding_improves_time_to_first_crash () =
  let target = Apache.target () in
  let sub = Apache.space () in
  let executor = Afex.Executor.of_target target in
  let findings = Analyzer.analyze ~recall:0.8 ~precision:0.7 target in
  let seeds = Seeding.points_for sub target findings ~max_seeds:40 in
  let first_crash config =
    let r = Session.run ~iterations:300 config sub executor in
    let rec scan i = function
      | [] -> max_int
      | c :: rest -> if Test_case.crashed c then i else scan (i + 1) rest
    in
    scan 1 r.Session.executed
  in
  let totals f = List.fold_left (fun acc s -> acc + f s) 0 [ 31; 32; 33 ] in
  let plain = totals (fun s -> first_crash (Config.fitness_guided ~seed:s ())) in
  let seeded =
    totals (fun s ->
        first_crash
          { (Config.fitness_guided ~seed:s ()) with Config.initial_seeds = seeds })
  in
  checkb
    (Printf.sprintf "seeded first-crash sum %d <= plain %d" seeded plain)
    true (seeded <= plain)

let test_seeding_invalid_points_skipped () =
  let sub = Apache.space () in
  let bogus = Point.of_list [ 999_999; 0; 0 ] in
  let config =
    { (Config.fitness_guided ~seed:4 ()) with Config.initial_seeds = [ bogus ] }
  in
  (* Must not raise: the invalid seed is skipped. *)
  let r =
    Session.run ~iterations:5 config sub (Afex.Executor.of_target (Apache.target ()))
  in
  checki "still ran the budget" 5 r.Session.iterations

(* --- Dynamic sigma --- *)

let test_dynamic_sigma_valid_mutations () =
  let sub = Apache.space () in
  let params = { Afex.Mutator.default_params with Afex.Mutator.dynamic_sigma = true } in
  let config =
    { (Config.fitness_guided ~seed:5 ()) with Config.strategy = Config.Fitness_guided params }
  in
  let r = Session.run ~iterations:300 config sub (Afex.Executor.of_target (Apache.target ())) in
  checki "completes the budget" 300 r.Session.iterations;
  checkb "still finds failures" true (r.Session.failed > 0)

(* --- Union-space search --- *)

let test_run_space_budget_split () =
  let description =
    "memory function : { malloc } errno : { ENOMEM } retval : { 0 } \
     testId : [ 0, 57 ] callNumber : [ 1, 6 ] ;\n\
     io function : { read } errno : { EINTR } retval : { -1 } \
     testId : [ 0, 57 ] callNumber : [ 1, 6 ] ;"
  in
  let space = Result.get_ok (Afex_faultspace.Fsdl.space_of_string description) in
  let executor = Afex.Executor.of_target (Apache.target ()) in
  let sr = Session.run_space ~iterations:200 (Config.fitness_guided ~seed:6 ()) space executor in
  checki "two subspaces" 2 (List.length sr.Session.per_subspace);
  checki "budget consumed" 200 sr.Session.total_iterations;
  (* Equal cardinalities -> equal shares. *)
  List.iter
    (fun (_, r) -> checki "even split" 100 r.Session.iterations)
    sr.Session.per_subspace;
  checkb "totals aggregate" true
    (sr.Session.total_failed
    = List.fold_left (fun acc (_, r) -> acc + r.Session.failed) 0 sr.Session.per_subspace)

(* A synthetic scenario executor that accepts any attributes. *)
let null_executor () =
  Afex.Executor.of_scenario_fn ~total_blocks:1 ~description:"null" (fun scenario ->
      let fault = Fault.make ~test_id:0 ~func:"x" ~call_number:0 () in
      ignore scenario;
      {
        Afex_injector.Outcome.fault;
        status = Afex_injector.Outcome.Passed;
        triggered = false;
        coverage = Afex_stats.Bitset.create 1;
        injection_stack = None;
        crash_stack = None;
        duration_ms = 1.0;
      })

let test_run_space_labels () =
  let description = "alpha x : [ 0, 3 ] ; beta x : [ 0, 3 ] ;" in
  let space = Result.get_ok (Afex_faultspace.Fsdl.space_of_string description) in
  let sr =
    Session.run_space ~iterations:8 (Config.random_search ~seed:1 ()) space (null_executor ())
  in
  Alcotest.(check (list (option string)))
    "labels preserved" [ Some "alpha"; Some "beta" ]
    (List.map fst sr.Session.per_subspace)

(* 2^21 values on each of three axes is 2^63 points, past [max_int]: the
   cardinality saturates, and the budget split must still give the huge
   member nearly everything. *)
let test_run_space_saturated_split () =
  let description =
    "small x : [ 0, 11 ] ;\n\
     huge a : [ 0, 2097151 ] b : [ 0, 2097151 ] c : [ 0, 2097151 ] ;"
  in
  let space = Result.get_ok (Afex_faultspace.Fsdl.space_of_string description) in
  checki "the union saturates" max_int (Afex_faultspace.Space.cardinality space);
  let sr =
    Session.run_space ~iterations:50 (Config.random_search ~seed:1 ()) space (null_executor ())
  in
  Alcotest.(check (list int))
    "shares" [ 1; 50 ]
    (List.map (fun (_, r) -> r.Session.iterations) sr.Session.per_subspace)

(* --- Assess --- *)

let test_assess_deterministic_target () =
  let target = Apache.target () in
  let sub = Apache.space () in
  let executor = Afex.Executor.of_target target in
  let r = Session.run ~iterations:200 (Config.fitness_guided ~seed:8 ()) sub executor in
  let sensor = Sensor.standard () in
  let assessed = Assess.top_faults executor ~sensor ~trials:5 ~n:4 r in
  checki "four assessed" 4 (List.length assessed);
  List.iter
    (fun (_, p) ->
      checkb "deterministic executor -> infinite precision" true
        (Afex_quality.Precision.deterministic p))
    assessed

let test_assess_noisy_target () =
  let target = Apache.target () in
  let nondet = { Engine.rng = Afex_stats.Rng.create 3; dodge_probability = 0.5 } in
  let executor = Afex.Executor.of_target ~nondet target in
  let sensor = Sensor.standard () in
  (* A fault that crashes deterministically without noise. *)
  let scenario =
    Fault.to_scenario (Fault.make ~test_id:30 ~func:"strdup" ~call_number:1 ())
  in
  let p = Assess.impact_precision executor ~sensor ~trials:20 scenario in
  checkb "noise lowers precision" false (Afex_quality.Precision.deterministic p)

(* --- Export --- *)

let session_for_export =
  lazy
    (Session.run ~iterations:60
       (Config.fitness_guided ~seed:12 ())
       (Apache.space ())
       (Afex.Executor.of_target (Apache.target ())))

let test_export_csv_shape () =
  let r = Lazy.force session_for_export in
  let csv = Export.records_to_csv r in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  checki "header + one row per test" 61 (List.length lines);
  checkb "header fields" true (contains (List.hd lines) "status,triggered,impact");
  List.iteri
    (fun i line ->
      if i > 0 then
        checki
          (Printf.sprintf "row %d column count" i)
          13
          (List.length (String.split_on_char ',' line)))
    lines

let test_export_csv_escaping () =
  checks "plain" "abc" (Export.csv_escape "abc");
  checks "comma" "\"a,b\"" (Export.csv_escape "a,b");
  checks "quote doubled" "\"a\"\"b\"" (Export.csv_escape "a\"b")

let test_export_json_fields () =
  let r = Lazy.force session_for_export in
  let json = Export.summary_to_json ~target:"apache" r in
  List.iter
    (fun needle -> checkb ("json has " ^ needle) true (contains json needle))
    [
      "\"target\": \"apache\"";
      "\"strategy\": \"fitness-guided\"";
      "\"iterations\": 60";
      "\"sensitivity\": [";
      "\"failure_curve\": [";
    ]

let test_export_json_escape () =
  checks "quotes" "a\\\"b" (Export.json_escape "a\"b");
  checks "backslash" "a\\\\b" (Export.json_escape "a\\b");
  checks "newline" "a\\nb" (Export.json_escape "a\nb")

(* --- Compound spaces --- *)

let test_spaces_multi_shape () =
  let target = Apache.target () in
  let sub = Spaces.multi ~arms:2 ~min_call:1 ~max_call:6 ~funcs:Libc.standard19 target in
  checki "five axes" 5 (Subspace.dim sub);
  checks "arm2 function axis" "function2"
    (Afex_faultspace.Axis.name (Subspace.axis sub 3));
  checki "cardinality" (58 * 19 * 6 * 19 * 6) (Subspace.cardinality sub)

let test_spaces_multi_three_arms () =
  let target = Apache.target () in
  let sub = Spaces.multi ~arms:3 ~min_call:1 ~max_call:2 ~funcs:[ "read" ] target in
  checki "seven axes" 7 (Subspace.dim sub);
  checks "arm3 call axis" "callNumber3"
    (Afex_faultspace.Axis.name (Subspace.axis sub 6))

let test_multi_space_session_runs () =
  let target = Apache.target () in
  let sub = Apache.multi_space () in
  let executor = Afex.Executor.of_target_multi target in
  let r = Session.run ~iterations:150 (Config.fitness_guided ~seed:13 ()) sub executor in
  checki "budget consumed" 150 r.Session.iterations;
  checkb "finds failures" true (r.Session.failed > 0)

let test_latent_bug_only_multi () =
  let target = Apache.target () in
  let latent = Apache.latent_bug_stack () in
  (* Single-fault sweep of write injections over the reaching tests finds
     nothing... *)
  let single = ref 0 in
  for test_id = 0 to Target.n_tests target - 1 do
    for k = 1 to 8 do
      let o = Engine.run target (Fault.make ~test_id ~func:"write" ~call_number:k ()) in
      if o.Afex_injector.Outcome.crash_stack = Some latent then incr single
    done
  done;
  checki "invisible to single faults" 0 !single;
  (* ...but a compound scenario (an earlier handled fault + the write
     fault) crashes it. Construct one exactly: walk a reaching test's
     trace, pick the first Handled site before the latent site, and
     compute both call numbers. *)
  let latent_site = Apache.latent_log_site () in
  (* Pick a test that actually reaches the latent site (the planting is
     data-driven, so the reached window is not a fixed range). *)
  let test =
    Array.to_list (Target.tests target)
    |> List.find (fun (t : Afex_simtarget.Sim_test.t) ->
           Array.exists (fun site -> site = latent_site) t.Afex_simtarget.Sim_test.trace)
  in
  let counts = Hashtbl.create 8 in
  let first_arm = ref None and latent_arm = ref None in
  Array.iter
    (fun site_id ->
      let site = Target.callsite target site_id in
      let func = site.Callsite.func in
      let k = 1 + Option.value (Hashtbl.find_opt counts func) ~default:0 in
      Hashtbl.replace counts func k;
      if site_id = latent_site && !latent_arm = None then latent_arm := Some k;
      if
        !first_arm = None && !latent_arm = None
        && site.Callsite.behavior.Behavior.default = Behavior.Handled
        && not (String.equal func "write")
      then first_arm := Some (func, k))
    test.Afex_simtarget.Sim_test.trace;
  match !first_arm, !latent_arm with
  | Some (func, k), Some k_latent ->
      let mf =
        Afex_injector.Multifault.make ~test_id:test.Afex_simtarget.Sim_test.id
          ~arms:[ (func, k); ("write", k_latent) ]
      in
      let o = Afex_injector.Multifault.run target mf in
      checkb "reachable with two faults" true
        (o.Afex_injector.Outcome.crash_stack = Some latent)
  | _ -> Alcotest.fail "could not construct a compound scenario"


(* --- Netsim / Netfault (performance-impact injection) --- *)

module Netsim = Afex_simtarget.Netsim
module Netfault = Afex_injector.Netfault

let server = Netsim.httpd_like ()

let test_netsim_baseline () =
  Array.iteri
    (fun w _ ->
      let r = Netsim.baseline server ~workload:w in
      checki
        (Printf.sprintf "workload %d completes everything" w)
        r.Netsim.requests_attempted r.Netsim.requests_completed;
      checkb "positive throughput" true (r.Netsim.throughput_rps > 0.0);
      checkb "no abort" true (r.Netsim.aborted_connection = None))
    server.Netsim.workloads

let test_netsim_deterministic () =
  let a = Netsim.baseline server ~workload:1 and b = Netsim.baseline server ~workload:1 in
  checkb "same elapsed" true (a.Netsim.elapsed_ms = b.Netsim.elapsed_ms)

let find_connection ~fragile workload =
  let w = server.Netsim.workloads.(workload) in
  let conn =
    Array.to_list w.Netsim.connections
    |> List.find (fun (c : Netsim.connection) ->
           if fragile then c.Netsim.retry_limit = 0 else c.Netsim.retry_limit > 0)
  in
  conn.Netsim.conn_id

let test_netsim_drop_robust_connection_slows () =
  let workload = 0 in
  let connection = find_connection ~fragile:false workload in
  let base = Netsim.baseline server ~workload in
  let r =
    Netsim.run server ~drop:{ Netsim.workload; connection; packet = 0 } ~workload ()
  in
  checki "nothing lost" base.Netsim.requests_completed r.Netsim.requests_completed;
  checkb "retransmission costs time" true (r.Netsim.elapsed_ms > base.Netsim.elapsed_ms);
  checkb "throughput drops" true (r.Netsim.throughput_rps < base.Netsim.throughput_rps)

let test_netsim_drop_fragile_connection_aborts () =
  let workload = 0 in
  let connection = find_connection ~fragile:true workload in
  let base = Netsim.baseline server ~workload in
  let r =
    Netsim.run server ~drop:{ Netsim.workload; connection; packet = 0 } ~workload ()
  in
  checkb "requests lost" true (r.Netsim.requests_completed < base.Netsim.requests_completed);
  checkb "abort recorded" true (r.Netsim.aborted_connection = Some connection)

let test_netsim_out_of_range_drop_noop () =
  let base = Netsim.baseline server ~workload:2 in
  let r =
    Netsim.run server
      ~drop:{ Netsim.workload = 2; connection = 999; packet = 0 }
      ~workload:2 ()
  in
  checkb "hole is a no-op" true (r = base)

let test_netsim_bad_workload () =
  checkb "workload validated" true
    (try ignore (Netsim.run server ~workload:99 ()); false
     with Invalid_argument _ -> true)

let test_netfault_space_shape () =
  let sub = Netfault.space server in
  checki "three axes" 3 (Subspace.dim sub);
  checki "cardinality"
    (Array.length server.Netsim.workloads
    * Netsim.max_connections server * Netsim.max_packets server)
    (Subspace.cardinality sub)

let test_netfault_scenario_decode () =
  let scenario =
    [
      ("testId", Afex_faultspace.Value.Int 1);
      ("connection", Afex_faultspace.Value.Int 2);
      ("packet", Afex_faultspace.Value.Int 3);
    ]
  in
  (match Netfault.drop_of_scenario scenario with
  | Ok d ->
      checki "workload" 1 d.Netsim.workload;
      checki "connection" 2 d.Netsim.connection;
      checki "packet" 3 d.Netsim.packet
  | Error e -> Alcotest.fail e);
  checkb "missing attribute rejected" true
    (Result.is_error (Netfault.drop_of_scenario [ ("testId", Afex_faultspace.Value.Int 0) ]))

let test_netfault_run_statuses () =
  let run workload connection =
    Netfault.run_scenario server
      [
        ("testId", Afex_faultspace.Value.Int workload);
        ("connection", Afex_faultspace.Value.Int connection);
        ("packet", Afex_faultspace.Value.Int 0);
      ]
  in
  let robust = run 0 (find_connection ~fragile:false 0) in
  checkb "robust drop passes" true (robust.Afex_injector.Outcome.status = Afex_injector.Outcome.Passed);
  checkb "robust drop still triggers" true robust.Afex_injector.Outcome.triggered;
  let fragile = run 0 (find_connection ~fragile:true 0) in
  checkb "fragile drop fails" true
    (fragile.Afex_injector.Outcome.status = Afex_injector.Outcome.Test_failed);
  checkb "fragile covers fewer requests" true
    (Afex_stats.Bitset.count fragile.Afex_injector.Outcome.coverage
    < Afex_stats.Bitset.count robust.Afex_injector.Outcome.coverage)

let test_netfault_fault_encoding_roundtrip () =
  let drop = { Netsim.workload = 3; connection = 4; packet = 17 } in
  let o =
    Netfault.run_scenario server
      [
        ("testId", Afex_faultspace.Value.Int drop.Netsim.workload);
        ("connection", Afex_faultspace.Value.Int drop.Netsim.connection);
        ("packet", Afex_faultspace.Value.Int drop.Netsim.packet);
      ]
  in
  checkb "drop encodes through the fault" true
    (Netfault.drop_of_fault o.Afex_injector.Outcome.fault = drop)

let test_netfault_throughput_loss () =
  let fragile = find_connection ~fragile:true 0 in
  let loss f = Netfault.throughput_loss server f in
  let hurting =
    Fault.make ~test_id:0 ~func:"tcp_drop" ~call_number:0 ~errno:"EDROP" ~retval:fragile ()
  in
  checkb "fragile drop loses throughput" true (loss hurting > 0.0);
  let harmless =
    Fault.make ~test_id:0 ~func:"tcp_drop" ~call_number:9999 ~errno:"EDROP" ~retval:0 ()
  in
  checkb "hole loses nothing" true (loss harmless = 0.0)

let test_netfault_guided_search_finds_loss () =
  let sub = Netfault.space server in
  let executor =
    Afex.Executor.of_scenario_fn
      ~total_blocks:(Netfault.total_request_blocks server)
      ~description:"net" (Netfault.run_scenario server)
  in
  let sensor = Netfault.throughput_loss_sensor server in
  let run strategy =
    let config = { (strategy ()) with Config.sensor } in
    let r = Session.run ~iterations:250 config sub executor in
    List.fold_left
      (fun acc (c : Test_case.t) ->
        acc +. Netfault.throughput_loss server c.Test_case.fault)
      0.0 r.Session.executed
  in
  let fg = run (fun () -> Config.fitness_guided ~seed:77 ()) in
  let rnd = run (fun () -> Config.random_search ~seed:77 ()) in
  checkb
    (Printf.sprintf "guided loss %.0f >= random %.0f" fg rnd)
    true (fg >= rnd)


(* --- Burst drops (Subinterval axes end-to-end) --- *)

let test_burst_space_has_subinterval_axis () =
  let sub = Netfault.burst_space server in
  checki "three axes" 3 (Subspace.dim sub);
  match Afex_faultspace.Axis.kind (Subspace.axis sub 2) with
  | Afex_faultspace.Axis.Subinterval { lo; hi } ->
      checki "window lo" 0 lo;
      checki "window hi" (Netsim.max_packets server - 1) hi
  | Afex_faultspace.Axis.Symbols _ | Afex_faultspace.Axis.Range _ ->
      Alcotest.fail "expected a sub-interval axis"

let test_burst_scenario_roundtrip_through_subspace () =
  (* Every point of the window axis decodes to a valid inclusive window. *)
  let sub = Netfault.burst_space server in
  let rng = Afex_stats.Rng.create 55 in
  for _ = 1 to 200 do
    let p = Subspace.random_point rng sub in
    match Netfault.burst_of_scenario (Subspace.values sub p) with
    | Ok b ->
        let lo, hi = b.Netsim.window in
        checkb "valid window" true (0 <= lo && lo <= hi && hi < Netsim.max_packets server)
    | Error e -> Alcotest.fail e
  done

let test_burst_worse_than_single_drop () =
  (* A burst covering a packet is at least as damaging as dropping just
     that packet. *)
  let workload = 3 in
  let base = Netsim.baseline server ~workload in
  Array.iter
    (fun (conn : Netsim.connection) ->
      let connection = conn.Netsim.conn_id in
      let single =
        Netsim.run server ~drop:{ Netsim.workload; connection; packet = 0 } ~workload ()
      in
      let burst =
        Netsim.run server
          ~burst:{ Netsim.b_workload = workload; b_connection = connection; window = (0, 7) }
          ~workload ()
      in
      checkb "burst completes no more" true
        (burst.Netsim.requests_completed <= single.Netsim.requests_completed);
      checkb "single within baseline" true
        (single.Netsim.requests_completed <= base.Netsim.requests_completed))
    server.Netsim.workloads.(workload).Netsim.connections

let test_burst_exhausts_retry_budget () =
  (* A robust client (retry budget 3) survives a 1-packet drop but aborts
     when a burst loses 4+ packets of one request. *)
  let conn =
    { Netsim.conn_id = 0; packets_per_request = [| 6; 6 |]; retry_limit = 3 }
  in
  let w = { Netsim.id = 0; name = "w"; connections = [| conn |]; handler_ms = 1.0 } in
  let srv =
    { Netsim.name = "s"; workloads = [| w |]; per_packet_ms = 0.1; retransmit_ms = 1.0 }
  in
  let single =
    Netsim.run srv ~drop:{ Netsim.workload = 0; connection = 0; packet = 0 } ~workload:0 ()
  in
  checki "single drop retransmitted" 2 single.Netsim.requests_completed;
  let burst =
    Netsim.run srv
      ~burst:{ Netsim.b_workload = 0; b_connection = 0; window = (0, 3) }
      ~workload:0 ()
  in
  checki "burst aborts the connection" 0 burst.Netsim.requests_completed;
  checkb "abort recorded" true (burst.Netsim.aborted_connection = Some 0)

let test_burst_fault_encoding_roundtrip () =
  let b = { Netsim.b_workload = 2; b_connection = 3; window = (5, 11) } in
  let o =
    Netfault.run_burst_scenario server
      [
        ("testId", Afex_faultspace.Value.Int 2);
        ("connection", Afex_faultspace.Value.Int 3);
        ("window", Afex_faultspace.Value.Pair (5, 11));
      ]
  in
  (match Netfault.burst_of_fault o.Afex_injector.Outcome.fault with
  | Ok b' -> checkb "round-trip" true (b = b')
  | Error e -> Alcotest.fail e);
  checkb "non-burst fault rejected" true
    (Result.is_error
       (Netfault.burst_of_fault (Fault.make ~test_id:0 ~func:"read" ~call_number:1 ())))

let test_burst_search_end_to_end () =
  (* The explorer mutates Subinterval coordinates like any other axis. *)
  let sub = Netfault.burst_space server in
  let executor =
    Afex.Executor.of_scenario_fn
      ~total_blocks:(Netfault.total_request_blocks server)
      ~description:"bursts" (Netfault.run_burst_scenario server)
  in
  let config =
    { (Config.fitness_guided ~seed:66 ()) with
      Config.sensor = Netfault.burst_loss_sensor server }
  in
  let r = Session.run ~iterations:300 config sub executor in
  checki "budget consumed" 300 r.Session.iterations;
  checkb "finds damaging bursts" true (r.Session.failed > 0)

(* --- Netfault codec round-trip properties (Prop harness) --- *)

let arb_drop =
  Prop.map
    ~show:(fun (d : Netsim.drop) ->
      Printf.sprintf "drop{w=%d;c=%d;p=%d}" d.Netsim.workload d.Netsim.connection
        d.Netsim.packet)
    (fun ((w, c), p) -> { Netsim.workload = w; connection = c; packet = p })
    (Prop.pair
       (Prop.pair
          (Prop.int_range 0 (Array.length server.Netsim.workloads - 1))
          (Prop.int_range 0 (Netsim.max_connections server - 1)))
       (Prop.int_range 0 (Netsim.max_packets server - 1)))

let arb_burst =
  let pmax = Netsim.max_packets server - 1 in
  Prop.map
    ~show:(fun (b : Netsim.burst) ->
      let lo, hi = b.Netsim.window in
      Printf.sprintf "burst{w=%d;c=%d;window=[%d,%d]}" b.Netsim.b_workload
        b.Netsim.b_connection lo hi)
    (fun ((w, c), (a, b)) ->
      { Netsim.b_workload = w; b_connection = c; window = (min a b, max a b) })
    (Prop.pair
       (Prop.pair
          (Prop.int_range 0 (Array.length server.Netsim.workloads - 1))
          (Prop.int_range 0 (Netsim.max_connections server - 1)))
       (Prop.pair (Prop.int_range 0 pmax) (Prop.int_range 0 pmax)))

(* Binding order in a scenario is not significant; exercise a few. *)
let drop_scenario ~order (d : Netsim.drop) =
  let b =
    [
      ("testId", Afex_faultspace.Value.Int d.Netsim.workload);
      ("connection", Afex_faultspace.Value.Int d.Netsim.connection);
      ("packet", Afex_faultspace.Value.Int d.Netsim.packet);
    ]
  in
  match (order, b) with
  | 1, _ -> List.rev b
  | 2, [ t; c; p ] -> [ c; p; t ]
  | _ -> b

let burst_scenario (b : Netsim.burst) =
  let lo, hi = b.Netsim.window in
  [
    ("testId", Afex_faultspace.Value.Int b.Netsim.b_workload);
    ("connection", Afex_faultspace.Value.Int b.Netsim.b_connection);
    ("window", Afex_faultspace.Value.Pair (lo, hi));
  ]

let test_prop_drop_scenario_roundtrip () =
  Prop.check ~count:200 "drop_of_scenario inverts the binding encoding"
    (Prop.pair arb_drop (Prop.int_range 0 2))
    (fun (drop, order) ->
      Netfault.drop_of_scenario (drop_scenario ~order drop) = Ok drop)

let test_prop_drop_fault_roundtrip () =
  Prop.check ~count:60 "drop_of_fault inverts the outcome fault encoding" arb_drop
    (fun drop ->
      let o = Netfault.run_scenario server (drop_scenario ~order:0 drop) in
      Netfault.drop_of_fault o.Afex_injector.Outcome.fault = drop)

let test_prop_burst_scenario_roundtrip () =
  Prop.check ~count:200 "burst_of_scenario inverts the binding encoding" arb_burst
    (fun burst -> Netfault.burst_of_scenario (burst_scenario burst) = Ok burst)

let test_prop_burst_fault_roundtrip () =
  Prop.check ~count:60 "burst_of_fault inverts the outcome fault encoding" arb_burst
    (fun burst ->
      let o = Netfault.run_burst_scenario server (burst_scenario burst) in
      Netfault.burst_of_fault o.Afex_injector.Outcome.fault = Ok burst)

let test_prop_codec_namespaces_disjoint () =
  (* The inverse mismatch this property surfaced: bursts share the field
     layout (test_id, retval, call_number = window lo), so [drop_of_fault]
     used to silently fabricate a single-packet drop from a burst fault —
     and [throughput_loss] scored that fabricated drop. Both must reject
     the foreign encoding instead. *)
  Prop.check ~count:40 "burst faults do not decode as drops (and vice versa)"
    (Prop.pair arb_drop arb_burst)
    (fun (drop, burst) ->
      let drop_fault =
        (Netfault.run_scenario server (drop_scenario ~order:0 drop))
          .Afex_injector.Outcome.fault
      in
      let burst_fault =
        (Netfault.run_burst_scenario server (burst_scenario burst))
          .Afex_injector.Outcome.fault
      in
      let drop_rejected =
        match Netfault.drop_of_fault burst_fault with
        | exception Invalid_argument _ -> true
        | _ -> false
      in
      drop_rejected
      && Result.is_error (Netfault.burst_of_fault drop_fault)
      && Netfault.throughput_loss server burst_fault = 0.0)

(* --- Time-budget stop criterion --- *)

let test_time_budget_stops_session () =
  let sub = Apache.space () in
  let executor = Afex.Executor.of_target (Apache.target ()) in
  (* Apache tests cost ~250 ms simulated each; 3 seconds of simulated time
     allow only a dozen or so tests. *)
  let r =
    Session.run ~time_budget_ms:3000.0 ~iterations:10_000
      (Config.fitness_guided ~seed:3 ())
      sub executor
  in
  checkb "stopped long before the iteration budget" true (r.Session.iterations < 100);
  checkb "budget respected up to one test" true
    (r.Session.simulated_ms < 3000.0 +. 2000.0)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("analyzer perfect", test_analyzer_full_recall_full_precision);
      ("analyzer imperfect", test_analyzer_imperfect);
      ("analyzer deterministic", test_analyzer_deterministic);
      ("analyzer reaching injections", test_analyzer_reaching_injections);
      ("seeding points valid", test_seeding_points_valid);
      ("seeding executed first", test_seeding_executed_first);
      ("seeding speeds first crash", test_seeding_improves_time_to_first_crash);
      ("seeding skips invalid points", test_seeding_invalid_points_skipped);
      ("dynamic sigma works", test_dynamic_sigma_valid_mutations);
      ("run_space budget split", test_run_space_budget_split);
      ("run_space labels", test_run_space_labels);
      ("assess deterministic", test_assess_deterministic_target);
      ("assess noisy", test_assess_noisy_target);
      ("export csv shape", test_export_csv_shape);
      ("export csv escaping", test_export_csv_escaping);
      ("export json fields", test_export_json_fields);
      ("export json escape", test_export_json_escape);
      ("spaces multi shape", test_spaces_multi_shape);
      ("spaces multi three arms", test_spaces_multi_three_arms);
      ("multi-space session runs", test_multi_space_session_runs);
      ("latent bug needs two faults", test_latent_bug_only_multi);
      ("netsim baseline", test_netsim_baseline);
      ("netsim deterministic", test_netsim_deterministic);
      ("netsim robust drop slows", test_netsim_drop_robust_connection_slows);
      ("netsim fragile drop aborts", test_netsim_drop_fragile_connection_aborts);
      ("netsim out-of-range drop is a hole", test_netsim_out_of_range_drop_noop);
      ("netsim bad workload", test_netsim_bad_workload);
      ("netfault space shape", test_netfault_space_shape);
      ("netfault scenario decode", test_netfault_scenario_decode);
      ("netfault run statuses", test_netfault_run_statuses);
      ("netfault fault encoding roundtrip", test_netfault_fault_encoding_roundtrip);
      ("netfault throughput loss", test_netfault_throughput_loss);
      ("netfault guided search finds loss", test_netfault_guided_search_finds_loss);
      ("burst space has subinterval axis", test_burst_space_has_subinterval_axis);
      ("burst scenario roundtrip", test_burst_scenario_roundtrip_through_subspace);
      ("burst worse than single drop", test_burst_worse_than_single_drop);
      ("burst exhausts retry budget", test_burst_exhausts_retry_budget);
      ("burst fault encoding roundtrip", test_burst_fault_encoding_roundtrip);
      ("burst search end-to-end", test_burst_search_end_to_end);
      ("prop drop scenario roundtrip", test_prop_drop_scenario_roundtrip);
      ("prop drop fault roundtrip", test_prop_drop_fault_roundtrip);
      ("prop burst scenario roundtrip", test_prop_burst_scenario_roundtrip);
      ("prop burst fault roundtrip", test_prop_burst_fault_roundtrip);
      ("prop codec namespaces disjoint", test_prop_codec_namespaces_disjoint);
      ("time budget stops session", test_time_budget_stops_session);
      ("run_space splits a saturated union", test_run_space_saturated_split);
    ]
