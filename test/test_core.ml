(* Tests for the core AFEX search: priority queue, sensitivity, mutation,
   explorer, and full sessions on planted fault spaces. *)

module Rng = Afex_stats.Rng
module Bitset = Afex_stats.Bitset
module Point = Afex_faultspace.Point
module Axis = Afex_faultspace.Axis
module Subspace = Afex_faultspace.Subspace
module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome
module Test_case = Afex.Test_case
module Pqueue = Afex.Pqueue
module History = Afex.History
module Sensitivity = Afex.Sensitivity
module Mutator = Afex.Mutator
module Config = Afex.Config
module Explorer = Afex.Explorer
module Session = Afex.Session
module Executor = Afex.Executor

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let case ?(fitness = 1.0) ?(point = Point.of_list [ 0; 0; 0 ]) () =
  {
    Test_case.point;
    fault = Fault.make ~test_id:0 ~func:"read" ~call_number:1 ();
    status = Outcome.Passed;
    triggered = true;
    impact = fitness;
    fitness;
    birth = 0;
    mutated_axis = None;
    injection_stack = None;
    crash_stack = None;
    new_blocks = 0;
    duration_ms = 1.0;
  }

(* --- Pqueue --- *)

let test_pqueue_capacity () =
  let q = Pqueue.create ~capacity:3 in
  let rng = Rng.create 1 in
  checkb "empty" true (Pqueue.is_empty q);
  for i = 1 to 3 do
    checkb "no eviction below capacity" true
      (Pqueue.insert rng q (case ~fitness:(float_of_int i) ()) = None)
  done;
  checki "at capacity" 3 (Pqueue.size q);
  let victim = Pqueue.insert rng q (case ~fitness:10.0 ()) in
  checkb "eviction at capacity" true (victim <> None);
  checki "size stays bounded" 3 (Pqueue.size q)

let test_pqueue_drop_min () =
  let q = Pqueue.create ~capacity:2 in
  let rng = Rng.create 2 in
  ignore (Pqueue.insert rng q (case ~fitness:5.0 ()));
  ignore (Pqueue.insert rng q (case ~fitness:50.0 ()));
  match Pqueue.insert ~policy:Pqueue.Drop_min rng q (case ~fitness:20.0 ()) with
  | Some victim -> checkf "lowest evicted" 5.0 victim.Test_case.fitness
  | None -> Alcotest.fail "expected eviction"

let test_pqueue_inverse_eviction_bias () =
  (* Over many trials, the low-fitness entry should be evicted far more
     often than the high-fitness one. *)
  let low_evicted = ref 0 in
  for seed = 0 to 199 do
    let q = Pqueue.create ~capacity:2 in
    let rng = Rng.create seed in
    ignore (Pqueue.insert rng q (case ~fitness:1.0 ()));
    ignore (Pqueue.insert rng q (case ~fitness:100.0 ()));
    match Pqueue.insert rng q (case ~fitness:50.0 ()) with
    | Some v when v.Test_case.fitness = 1.0 -> incr low_evicted
    | Some _ | None -> ()
  done;
  checkb "low fitness usually evicted" true (!low_evicted > 150)

let test_pqueue_sample_bias () =
  let q = Pqueue.create ~capacity:2 in
  let rng = Rng.create 3 in
  ignore (Pqueue.insert rng q (case ~fitness:1.0 ()));
  ignore (Pqueue.insert rng q (case ~fitness:99.0 ()));
  let high = ref 0 in
  for _ = 1 to 1000 do
    match Pqueue.sample rng q with
    | Some c when c.Test_case.fitness = 99.0 -> incr high
    | Some _ -> ()
    | None -> Alcotest.fail "queue not empty"
  done;
  checkb "fitness-proportional sampling" true (!high > 900)

let test_pqueue_sample_empty () =
  let q = Pqueue.create ~capacity:2 in
  checkb "sample empty" true (Pqueue.sample (Rng.create 4) q = None)

let test_pqueue_age_and_retire () =
  let q = Pqueue.create ~capacity:4 in
  let rng = Rng.create 5 in
  ignore (Pqueue.insert rng q (case ~fitness:10.0 ()));
  ignore (Pqueue.insert rng q (case ~fitness:0.6 ()));
  let retired = Pqueue.age q ~decay:0.5 ~retire_below:0.5 in
  checki "one retired" 1 (List.length retired);
  checkf "survivor decayed" 5.0 (List.hd (Pqueue.elements q)).Test_case.fitness;
  checkf "mean fitness" 5.0 (Pqueue.mean_fitness q)

let test_pqueue_bad_capacity () =
  checkb "capacity >= 1" true
    (try ignore (Pqueue.create ~capacity:0); false with Invalid_argument _ -> true)

(* --- History --- *)

let test_history () =
  let h = History.create () in
  let p = Point.of_list [ 1; 2 ] in
  checkb "initially absent" false (History.mem h p);
  History.add h p;
  checkb "present" true (History.mem h p);
  History.add h p;
  checki "idempotent" 1 (History.size h);
  checkb "other point absent" false (History.mem h (Point.of_list [ 2; 1 ]))

(* --- Sensitivity --- *)

let test_sensitivity_prior () =
  let s = Sensitivity.create ~dims:3 () in
  checkf "prior" 1.0 (Sensitivity.value s 0);
  let p = Sensitivity.probabilities s in
  Array.iter (fun x -> checkf "uniform start" (1.0 /. 3.0) x) p

let test_sensitivity_window_sum () =
  let s = Sensitivity.create ~window:3 ~dims:2 () in
  List.iter (fun f -> Sensitivity.record s ~axis:0 ~fitness:f) [ 1.0; 2.0; 3.0; 4.0 ];
  (* window of 3 keeps the newest three: 2+3+4 *)
  checkf "sliding sum" 9.0 (Sensitivity.value s 0);
  checkf "other axis prior" 1.0 (Sensitivity.value s 1)

let test_sensitivity_probabilities_floor () =
  let s = Sensitivity.create ~dims:2 () in
  List.iter (fun f -> Sensitivity.record s ~axis:0 ~fitness:f) [ 100.0; 100.0 ];
  Sensitivity.record s ~axis:1 ~fitness:0.0;
  let p = Sensitivity.probabilities s in
  checkf "sums to 1" 1.0 (p.(0) +. p.(1));
  checkb "dead axis keeps floor share" true (p.(1) >= 0.04);
  checkb "hot axis dominates" true (p.(0) > 0.9)

(* --- Mutator --- *)

let search_sub =
  Subspace.make
    [
      Axis.range "testId" ~lo:0 ~hi:49;
      Axis.symbols "function" [ "read"; "close"; "malloc" ];
      Axis.range "callNumber" ~lo:1 ~hi:20;
    ]

let test_mutator_single_axis_change () =
  let rng = Rng.create 11 in
  let sens = Sensitivity.create ~dims:3 () in
  let kernels = Mutator.kernels Mutator.default_params search_sub in
  for _ = 1 to 200 do
    let parent = case ~point:(Point.of_list [ 25; 1; 10 ]) () in
    let child, axis =
      Mutator.mutate ~kernels Mutator.default_params rng search_sub sens ~parent
    in
    checkb "child in space" true (Subspace.mem search_sub child);
    let diffs = ref 0 in
    for i = 0 to 2 do
      if Point.get child i <> Point.get parent.Test_case.point i then incr diffs
    done;
    checki "exactly one component changed" 1 !diffs;
    checkb "changed axis reported" true
      (Point.get child axis <> Point.get parent.Test_case.point axis)
  done

let test_mutator_sigma () =
  let axis = Axis.range "x" ~lo:0 ~hi:99 in
  checkf "sigma = |Ai|/5" 20.0 (Mutator.sigma_for Mutator.default_params axis)

let test_mutator_next_novel () =
  let rng = Rng.create 12 in
  let sens = Sensitivity.create ~dims:3 () in
  let queue = Pqueue.create ~capacity:4 in
  ignore (Pqueue.insert rng queue (case ~fitness:5.0 ~point:(Point.of_list [ 25; 1; 10 ]) ()));
  let history = History.create () in
  History.add history (Point.of_list [ 25; 1; 10 ]);
  let kernels = Mutator.kernels Mutator.default_params search_sub in
  for _ = 1 to 100 do
    let proposal =
      Mutator.next ~kernels Mutator.default_params rng search_sub sens ~queue
        ~history
        ~is_pending:(fun _ -> false)
    in
    checkb "novel" false (History.mem history proposal.Mutator.point)
  done

let test_mutator_empty_queue_random () =
  let rng = Rng.create 13 in
  let sens = Sensitivity.create ~dims:3 () in
  let queue = Pqueue.create ~capacity:4 in
  let history = History.create () in
  let proposal =
    Mutator.next
      ~kernels:(Mutator.kernels Mutator.default_params search_sub)
      Mutator.default_params rng search_sub sens ~queue ~history
      ~is_pending:(fun _ -> false)
  in
  checkb "random proposal when queue empty" true (proposal.Mutator.mutated_axis = None);
  checkb "in space" true (Subspace.mem search_sub proposal.Mutator.point)

(* --- A planted executor: failures concentrated in a cluster --- *)

(* Faults with testId in [20,29] and callNumber <= 10 fail; everything
   else passes. 100 failing points per function of 3000 total. *)
let planted_executor () =
  let total_blocks = 64 in
  Executor.of_fn ~total_blocks ~description:"planted" (fun fault ->
      let failing =
        fault.Fault.test_id >= 20 && fault.Fault.test_id <= 29
        && fault.Fault.call_number >= 1 && fault.Fault.call_number <= 10
      in
      let coverage = Bitset.create total_blocks in
      Bitset.set coverage (fault.Fault.test_id mod 64);
      {
        Outcome.fault;
        status = (if failing then Outcome.Test_failed else Outcome.Passed);
        triggered = true;
        coverage;
        injection_stack =
          Some [ "libc.so:" ^ fault.Fault.func; Printf.sprintf "site%d" fault.Fault.test_id ];
        crash_stack = None;
        duration_ms = 1.0;
      })

(* --- Explorer --- *)

let tiny_sub =
  Subspace.make
    [
      Axis.range "testId" ~lo:0 ~hi:3;
      Axis.symbols "function" [ "read" ];
      Axis.range "callNumber" ~lo:1 ~hi:3;
    ]

let test_explorer_exhaustive_complete () =
  let explorer = Explorer.create (Config.exhaustive ~seed:1 ()) tiny_sub (planted_executor ()) in
  let seen = Hashtbl.create 16 in
  let rec drain n =
    match Explorer.next explorer with
    | None -> n
    | Some proposal ->
        Hashtbl.replace seen (Point.key proposal.Mutator.point) ();
        ignore (Explorer.execute explorer proposal);
        drain (n + 1)
  in
  let n = drain 0 in
  checki "visits every point once" 12 n;
  checki "all distinct" 12 (Hashtbl.length seen);
  checkb "then exhausted" true (Explorer.next explorer = None)

let test_explorer_fitness_no_reexecution () =
  let explorer =
    Explorer.create (Config.fitness_guided ~seed:2 ()) search_sub (planted_executor ())
  in
  let seen = Hashtbl.create 256 in
  for _ = 1 to 400 do
    match Explorer.next explorer with
    | None -> Alcotest.fail "should not exhaust"
    | Some proposal ->
        let key = Point.key proposal.Mutator.point in
        checkb "never re-executes" false (Hashtbl.mem seen key);
        Hashtbl.replace seen key ();
        ignore (Explorer.execute explorer proposal)
  done

let test_explorer_counters_consistent () =
  let explorer =
    Explorer.create (Config.fitness_guided ~seed:3 ()) search_sub (planted_executor ())
  in
  for _ = 1 to 300 do
    match Explorer.next explorer with
    | None -> ()
    | Some p -> ignore (Explorer.execute explorer p)
  done;
  let records = Explorer.records explorer in
  checki "iterations = records" (Explorer.iterations explorer) (List.length records);
  checki "failed counter matches records"
    (List.length (List.filter Test_case.failed records))
    (Explorer.failed_count explorer);
  checki "history covers executions" (Explorer.iterations explorer)
    (Explorer.history_size explorer);
  (* coverage is the union of per-run coverage: at most 50 distinct blocks
     (testId mod 64), and positive *)
  checkb "coverage positive" true (Explorer.covered_blocks explorer > 0);
  checkb "coverage bounded" true (Explorer.covered_blocks explorer <= 50)

let test_explorer_random_allows_repeats () =
  (* 12-point space, 200 random draws: must repeat. *)
  let explorer = Explorer.create (Config.random_search ~seed:4 ()) tiny_sub (planted_executor ()) in
  let seen = Hashtbl.create 16 in
  let repeats = ref 0 in
  for _ = 1 to 200 do
    match Explorer.next explorer with
    | None -> Alcotest.fail "random never exhausts"
    | Some proposal ->
        let key = Point.key proposal.Mutator.point in
        if Hashtbl.mem seen key then incr repeats;
        Hashtbl.replace seen key ();
        ignore (Explorer.execute explorer proposal)
  done;
  checkb "samples with replacement" true (!repeats > 0)

let test_explorer_simulated_time () =
  let explorer = Explorer.create (Config.random_search ~seed:5 ()) tiny_sub (planted_executor ()) in
  (match Explorer.next explorer with
  | Some p -> ignore (Explorer.execute explorer p)
  | None -> Alcotest.fail "no candidate");
  (* 1 ms run + 5 ms default setup *)
  checkf "wall clock charged" 6.0 (Explorer.simulated_ms explorer)

(* --- Session --- *)

let test_session_fitness_beats_random_on_planted_cluster () =
  let executor = planted_executor () in
  let fg = Session.run ~iterations:500 (Config.fitness_guided ~seed:7 ()) search_sub executor in
  let rnd = Session.run ~iterations:500 (Config.random_search ~seed:7 ()) search_sub executor in
  (* Cluster density is 1000/3000 = 10% for random; the guided search must
     do at least 2x better on this strongly structured space. *)
  checkb
    (Printf.sprintf "fitness (%d) >= 2x random (%d)" fg.Session.failed rnd.Session.failed)
    true
    (fg.Session.failed >= 2 * rnd.Session.failed);
  checkb "random roughly at base rate" true
    (rnd.Session.failed > 20 && rnd.Session.failed < 120)

let test_session_failure_curve () =
  let executor = planted_executor () in
  let r = Session.run ~iterations:200 (Config.fitness_guided ~seed:8 ()) search_sub executor in
  checki "curve length" 200 (Array.length r.Session.failure_curve);
  let monotone = ref true in
  for i = 1 to 199 do
    if r.Session.failure_curve.(i) < r.Session.failure_curve.(i - 1) then monotone := false
  done;
  checkb "monotone" true !monotone;
  checki "final value = failed" r.Session.failed r.Session.failure_curve.(199)

let test_session_stop_distinct_counting () =
  let executor = planted_executor () in
  let stop = { Session.matches = Test_case.failed; count = 5 } in
  let r = Session.run ~stop ~iterations:10_000 (Config.random_search ~seed:9 ()) search_sub executor in
  checkb "stopped early" true r.Session.stopped_early;
  (match r.Session.stop_iteration with
  | Some i ->
      checkb "stop iteration recorded" true (i <= r.Session.iterations);
      (* At least 5 distinct failing points were seen. *)
      let distinct_failing =
        List.sort_uniq compare
          (List.filter_map
             (fun c -> if Test_case.failed c then Some (Point.key c.Test_case.point) else None)
             r.Session.executed)
      in
      checkb "counted distinct matches" true (List.length distinct_failing >= 5)
  | None -> Alcotest.fail "expected stop iteration")

let test_session_stop_unreachable () =
  let executor = planted_executor () in
  let stop = { Session.matches = Test_case.crashed; count = 1 } in
  let r = Session.run ~stop ~iterations:100 (Config.random_search ~seed:10 ()) search_sub executor in
  checkb "not stopped" false r.Session.stopped_early;
  checki "ran all iterations" 100 r.Session.iterations

let test_session_transform_applied () =
  (* With a transform that maps everything onto the failing cluster, even
     random search fails every time. *)
  let executor = planted_executor () in
  let transform p = Point.of_list [ 25; Point.get p 1; 5 ] in
  let r =
    Session.run ~transform ~iterations:50 (Config.random_search ~seed:11 ()) search_sub executor
  in
  checki "all injected faults fail" 50 r.Session.failed

let test_session_exhaustive_small_space () =
  let executor = planted_executor () in
  let r = Session.run ~iterations:10_000 (Config.exhaustive ~seed:12 ()) tiny_sub executor in
  checki "stops at space size" 12 r.Session.iterations

let test_session_aging_survives_queue_drain () =
  (* Brutal aging: every test retires immediately; the search must fall
     back to random exploration rather than deadlock. *)
  let executor = planted_executor () in
  let config =
    { (Config.fitness_guided ~seed:13 ()) with
      Config.aging_decay = 0.0; retire_threshold = 1.0 }
  in
  let r = Session.run ~iterations:100 config search_sub executor in
  checki "completes budget" 100 r.Session.iterations

let test_session_top_faults () =
  let executor = planted_executor () in
  let r = Session.run ~iterations:100 (Config.fitness_guided ~seed:14 ()) search_sub executor in
  let top = Session.top_faults r ~n:5 in
  checki "five top faults" 5 (List.length top);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Test_case.impact >= b.Test_case.impact && sorted rest
    | _ -> true
  in
  checkb "sorted by impact" true (sorted top)

let test_config_names () =
  Alcotest.(check string) "fitness" "fitness-guided"
    (Config.strategy_name (Config.fitness_guided ()).Config.strategy);
  Alcotest.(check string) "random" "random"
    (Config.strategy_name (Config.random_search ()).Config.strategy);
  Alcotest.(check string) "exhaustive" "exhaustive"
    (Config.strategy_name (Config.exhaustive ()).Config.strategy)

(* --- Pinned histories ---

   The search's samplers must stay bit-identical: one draw that comes
   out at a different index changes the whole history after it. These
   digests were computed before the samplers were rewritten to work
   without allocation; they cover mysql's large axes (1,147 test ids),
   which the 60-test apache golden export never reaches far into. A drift
   of one ulp in a cumulative sum moves a draw only when it lands on that
   boundary, so test_stats.ml steers draws onto the boundaries. *)

let history_digest (r : Session.result) =
  let b = Buffer.create 65536 in
  List.iter
    (fun (c : Test_case.t) ->
      Buffer.add_string b (Point.key c.Test_case.point);
      Buffer.add_char b ' ';
      Buffer.add_string b (Outcome.status_to_string c.Test_case.status);
      Buffer.add_char b '\n')
    r.Session.executed;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_pinned_history_mysql () =
  let module Mysql = Afex_simtarget.Mysql in
  let r =
    Session.run ~iterations:5000 (Config.fitness_guided ~seed:7 ())
      (Mysql.space ()) (Executor.of_target (Mysql.target ()))
  in
  checki "tests" 5000 (List.length r.Session.executed);
  Alcotest.(check string) "mysql seed 7 history" "81868e6e7b245ac3cc2243a30103a906" (history_digest r)

let test_pinned_history_apache () =
  let module Apache = Afex_simtarget.Apache in
  let config = { (Config.fitness_guided ~seed:505 ()) with Config.feedback = true } in
  let r =
    Session.run ~iterations:5000 config (Apache.space ())
      (Executor.of_target (Apache.target ()))
  in
  checki "tests" 5000 (List.length r.Session.executed);
  Alcotest.(check string) "apache seed 505 history" "3de6dc7e1bf5c18b243b38797feb4f22" (history_digest r)

(* --- Allocation gate ---

   Minor-heap words are deterministic for a fixed seed and build, so they
   gate candidate generation even on a one-CPU runner where wall time is
   noise. A stub executor keeps the count to the explorer's own work:
   [next] (Gaussian mutation, queue sampling, history and pending
   probes) and [report] (queue insert and aging, sensitivity). With the
   mutated axis's Gaussian rebuilt on every draw this loop allocated
   about 5,560 words per step; with cached kernels, in-place sampling and
   point-keyed tables it allocates about 220. The ceiling is about twice
   that. *)

let stub_blocks = 64

let stub_outcome status =
  {
    Outcome.fault = Fault.make ~test_id:0 ~func:"read" ~call_number:1 ();
    status;
    triggered = false;
    coverage = Bitset.create stub_blocks;
    injection_stack = None;
    crash_stack = None;
    duration_ms = 1.0;
  }

let stub_executor outcome =
  Executor.of_scenario_fn ~total_blocks:stub_blocks ~description:"stub"
    (fun _ -> outcome)

let test_explorer_allocation_gate () =
  let module Mysql = Afex_simtarget.Mysql in
  let passed = stub_outcome Outcome.Passed
  and failed = stub_outcome Outcome.Test_failed in
  let explorer =
    Explorer.create (Config.fitness_guided ~seed:7 ()) (Mysql.space ())
      (stub_executor passed)
  in
  let steps = 2000 in
  let before = Gc.minor_words () in
  for _ = 1 to steps do
    match Explorer.next explorer with
    | Some p ->
        (* Every fourth test id "fails", so the queue keeps fit parents
           and generation stays on the mutation path. *)
        let o = if Point.get p.Mutator.point 0 mod 4 = 0 then failed else passed in
        ignore (Explorer.report explorer p o)
    | None -> Alcotest.fail "fitness-guided search ran dry"
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int steps in
  checkb "mostly mutation proposals" true
    ((Explorer.mutator_stats explorer).Mutator.proposals > 1900);
  if words > 450.0 then
    Alcotest.failf "explorer next+report allocates %.0f words per step (ceiling 450)"
      words

(* The replsim executor on the benchmark's cluster: decode a two-arm
   scenario, simulate, build the outcome. The simulator allocated about
   66,000 words per run, mostly a closure per message it checked for
   loss; its rounds now allocate nothing short of a violation, and a
   run allocates about 490
   words (its logs, ledger and leader trace are too large for the minor
   heap and are not counted). The ceiling is about twice that. *)
let test_replsim_executor_allocation_gate () =
  let module Replsim = Afex_simtarget.Replsim in
  let module Replfault = Afex_injector.Replfault in
  let cluster = Replsim.make ~n:12 ~rounds:300 ~seed:11 () in
  let sub = Replfault.multi_space ~arms:2 cluster in
  let rng = Afex_stats.Rng.create 7 in
  let runs = 500 in
  let scenarios =
    List.init runs (fun _ -> Subspace.values sub (Subspace.random_point rng sub))
  in
  let before = Gc.minor_words () in
  List.iter (fun s -> ignore (Replfault.run_scenario cluster s)) scenarios;
  let words = (Gc.minor_words () -. before) /. float_of_int runs in
  if words > 1000.0 then
    Alcotest.failf "replsim run_scenario allocates %.0f words per run (ceiling 1,000)"
      words

(* The wire's reply path on mysql: the manager encodes each outcome as a
   RESULT record through [report_of_outcome], and the explorer decodes
   the frame and rebuilds each outcome through [outcome_of_report],
   sixteen replies to a frame (the pipelined client's half-window at
   the default in-flight 32). Coverage, about 95 blocks per mysql run,
   crossed as an int list built and reversed on both ends: about 850
   words per encoded and 1,576 per decoded reply. Going straight
   between the bitset's bytes and the varints, they cost about 185 and
   625. The ceilings are about twice that. *)
let test_wire_reply_allocation_gate () =
  let module Mysql = Afex_simtarget.Mysql in
  let module Message = Afex_cluster.Message in
  let exec = Executor.of_target (Mysql.target ()) in
  let explorer =
    Explorer.create (Config.fitness_guided ~seed:7 ()) (Mysql.space ()) exec
  in
  let frames = 64 and per_frame = 16 in
  let n = frames * per_frame in
  let outcomes =
    Array.init n (fun _ ->
        match Explorer.next explorer with
        | Some p ->
            let o = exec.Executor.run_scenario (Explorer.scenario_for explorer p) in
            ignore (Explorer.report explorer p o);
            o
        | None -> Alcotest.fail "fitness-guided search ran dry")
  in
  (* Payload strings are taken outside the counted spans: a frame's
     copy goes to the major heap or not depending on its size. *)
  let senc = Message.V2.server_enc () in
  let b = Buffer.create 8192 in
  let words = ref 0.0 in
  let payloads =
    Array.init frames (fun f ->
        Buffer.clear b;
        let before = Gc.minor_words () in
        for i = f * per_frame to ((f + 1) * per_frame) - 1 do
          Message.V2.encode_reply senc b
            (Message.Scenario_result (Message.report_of_outcome ~seq:i outcomes.(i)))
        done;
        words := !words +. (Gc.minor_words () -. before);
        Buffer.contents b)
  in
  let encoded = !words /. float_of_int n in
  let cdec = Message.V2.client_dec () in
  let total_blocks = exec.Executor.total_blocks in
  let rebuilt = ref 0 in
  let rebuild = function
    | Message.Scenario_result r -> (
        match Message.outcome_of_report ~total_blocks r with
        | Ok _ -> incr rebuilt
        | Error m -> Alcotest.fail m)
    | Message.Manager_error { message; _ } -> Alcotest.fail message
  in
  let before = Gc.minor_words () in
  Array.iter
    (fun payload ->
      match Message.V2.decode_replies cdec payload with
      | Ok replies -> List.iter rebuild replies
      | Error m -> Alcotest.fail m)
    payloads;
  let decoded = (Gc.minor_words () -. before) /. float_of_int n in
  checki "every reply rebuilt" n !rebuilt;
  if encoded > 400.0 then
    Alcotest.failf "encoding a mysql reply allocates %.0f words (ceiling 400)" encoded;
  if decoded > 1300.0 then
    Alcotest.failf "decoding a mysql reply allocates %.0f words (ceiling 1,300)"
      decoded

(* --- Exhausted spaces ---

   Once History holds every point of a hole-free subspace, no random draw
   can be novel, and [Explorer.next] skips the draws it would reject
   instead of building and probing them. The same axes made with
   [~hole:(fun _ -> false)] never take that path, so they are the
   reference: their histories must be byte-identical, under Session.run
   and under the pool's sliding window alike. apache's 11,020 points run
   out after about 11,500 tests of the feedback campaign. *)

let apache_reference_loop () =
  Subspace.make ~hole:(fun _ -> false)
    (Array.to_list (Subspace.axes (Afex_simtarget.Apache.space ())))

let feedback_config seed =
  { (Config.fitness_guided ~seed ()) with Config.feedback = true }

let distinct_points (r : Session.result) =
  let seen = Point.Tbl.create 16384 in
  List.iter (fun (c : Test_case.t) -> Point.Tbl.replace seen c.Test_case.point ()) r.Session.executed;
  Point.Tbl.length seen

let apache_executor () = Executor.of_target (Afex_simtarget.Apache.target ())

let test_pinned_history_apache_saturated () =
  let sub = Afex_simtarget.Apache.space () in
  let r = Session.run ~iterations:15_000 (feedback_config 505) sub (apache_executor ()) in
  checki "tests" 15_000 (List.length r.Session.executed);
  checki "every point ran" (Subspace.cardinality sub) (distinct_points r);
  Alcotest.(check string) "apache seed 505 history, 15,000 tests"
    "6bcd0c500a9f332be984e704d0b1b26a" (history_digest r)

let test_exhausted_matches_reference_loop () =
  let module Pool = Afex_cluster.Pool in
  List.iter
    (fun seed ->
      let config = feedback_config seed in
      let session sub = Session.run ~iterations:15_000 config sub (apache_executor ()) in
      let pool sub =
        fst (Pool.run ~jobs:1 ~iterations:15_000 config sub (Pool.Pure (apache_executor ())))
      in
      List.iter
        (fun (how, run) ->
          let fast = run (Afex_simtarget.Apache.space ()) in
          let reference = run (apache_reference_loop ()) in
          let what = Printf.sprintf "%s, seed %d" how seed in
          checki (what ^ ": every point ran") 11_020 (distinct_points fast);
          Alcotest.(check string) (what ^ ": history") (history_digest reference)
            (history_digest fast))
        [ ("Session.run", session); ("Pool.session", pool) ])
    [ 505; 31 ]

(* An always-passing stub empties the queue, so every step draws at
   random; the history covers apache's space within 12,000 steps. Drawing
   and probing all 202 points allocated about 3,150 words per saturated
   step; skipping the 201 that would be rejected leaves about 130. *)
let test_saturated_explorer_allocation_gate () =
  let module Apache = Afex_simtarget.Apache in
  let passed = stub_outcome Outcome.Passed in
  let sub = Apache.space () in
  let explorer =
    Explorer.create (Config.fitness_guided ~seed:7 ()) sub (stub_executor passed)
  in
  let step () =
    match Explorer.next explorer with
    | Some p -> ignore (Explorer.report explorer p passed)
    | None -> Alcotest.fail "fitness-guided search ran dry"
  in
  for _ = 1 to 12_000 do
    step ()
  done;
  checki "history covers the space" (Subspace.cardinality sub)
    (Explorer.history_size explorer);
  let steps = 2000 in
  let before = Gc.minor_words () in
  for _ = 1 to steps do
    step ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int steps in
  if words > 400.0 then
    Alcotest.failf
      "saturated explorer next+report allocates %.0f words per step (ceiling 400)"
      words

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("pqueue capacity", test_pqueue_capacity);
      ("pqueue drop-min", test_pqueue_drop_min);
      ("pqueue inverse eviction bias", test_pqueue_inverse_eviction_bias);
      ("pqueue sample bias", test_pqueue_sample_bias);
      ("pqueue sample empty", test_pqueue_sample_empty);
      ("pqueue age and retire", test_pqueue_age_and_retire);
      ("pqueue bad capacity", test_pqueue_bad_capacity);
      ("history", test_history);
      ("sensitivity prior", test_sensitivity_prior);
      ("sensitivity window sum", test_sensitivity_window_sum);
      ("sensitivity probability floor", test_sensitivity_probabilities_floor);
      ("mutator single axis change", test_mutator_single_axis_change);
      ("mutator sigma", test_mutator_sigma);
      ("mutator next is novel", test_mutator_next_novel);
      ("mutator empty queue random", test_mutator_empty_queue_random);
      ("explorer exhaustive complete", test_explorer_exhaustive_complete);
      ("explorer fitness no re-execution", test_explorer_fitness_no_reexecution);
      ("explorer counters consistent", test_explorer_counters_consistent);
      ("explorer random repeats", test_explorer_random_allows_repeats);
      ("explorer simulated time", test_explorer_simulated_time);
      ("session fitness beats random (planted)", test_session_fitness_beats_random_on_planted_cluster);
      ("session failure curve", test_session_failure_curve);
      ("session stop distinct counting", test_session_stop_distinct_counting);
      ("session stop unreachable", test_session_stop_unreachable);
      ("session transform applied", test_session_transform_applied);
      ("session exhaustive small space", test_session_exhaustive_small_space);
      ("session aging survives queue drain", test_session_aging_survives_queue_drain);
      ("session top faults", test_session_top_faults);
      ("config names", test_config_names);
      ("pinned history mysql", test_pinned_history_mysql);
      ("pinned history apache", test_pinned_history_apache);
      ("explorer allocation gate", test_explorer_allocation_gate);
      ("replsim executor allocation gate", test_replsim_executor_allocation_gate);
      ("wire reply allocation gate", test_wire_reply_allocation_gate);
      ("pinned history apache saturated", test_pinned_history_apache_saturated);
      ("exhausted space matches reference loop", test_exhausted_matches_reference_loop);
      ("saturated explorer allocation gate", test_saturated_explorer_allocation_gate);
    ]
