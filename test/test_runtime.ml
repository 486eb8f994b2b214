(* The runtime's Domain backend under real concurrency (every task
   runs exactly once, including tasks still queued at shutdown), and the
   cross-executor determinism matrix the whole design exists for: the
   same campaign exported byte-identically from the inline, Domain,
   event-loop and loopback-remote backends, and a kill at one of the
   window's sync watermarks resumed to the same bytes. *)

module Runtime = Afex_cluster.Runtime
module Pool = Afex_cluster.Pool
module Checkpoint = Afex_cluster.Checkpoint
module RM = Afex_cluster.Remote_manager
module Config = Afex.Config
module Session = Afex.Session
module Export = Afex_report.Export
module Apache = Afex_simtarget.Apache
module Mysql = Afex_simtarget.Mysql
module Netsim = Afex_simtarget.Netsim
module Netfault = Afex_injector.Netfault
module Replsim = Afex_simtarget.Replsim
module Replfault = Afex_injector.Replfault
module Outcome = Afex_injector.Outcome
module Fault = Afex_injector.Fault

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- the Domain backend ------------------------------------------------ *)

(* Each task's scenario names its own seq, and one run function counts
   the runs of every seq, so a lost or doubled task shows. *)
let task_scenario seq = [ ("testId", Afex_faultspace.Value.Int seq) ]

let counting_run ?(before = ignore) runs scenario =
  let seq =
    match scenario with
    | [ ("testId", Afex_faultspace.Value.Int seq) ] -> seq
    | _ -> Alcotest.fail "a task arrived with another scenario"
  in
  before ();
  Atomic.incr runs.(seq);
  {
    Outcome.fault = Fault.make ~test_id:seq ~func:"read" ~call_number:1 ();
    status = Outcome.Passed;
    triggered = false;
    coverage = Afex_stats.Bitset.create 1;
    injection_stack = None;
    crash_stack = None;
    duration_ms = 0.0;
  }

let test_domains_run_each_task_once () =
  let n = 2000 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  let rt = Runtime.domains ~jobs:4 (counting_run runs) in
  for seq = 0 to n - 1 do
    if Runtime.submit rt ~seq (task_scenario seq) <> None then
      Alcotest.failf "task %d ran on the caller" seq
  done;
  (* A blocking poll answers [[]] only once every task's completion has
     been polled. *)
  let completed = Array.make n 0 in
  let rec drain () =
    match Runtime.poll rt ~block:true with
    | [] -> ()
    | completions ->
        List.iter
          (fun (seq, result) ->
            (match result with
            | Ok o when o.Outcome.fault.Fault.test_id = seq -> ()
            | Ok _ ->
                Alcotest.failf "task %d completed with another task's outcome"
                  seq
            | Error e ->
                Alcotest.failf "task %d raised %s" seq (Printexc.to_string e));
            completed.(seq) <- completed.(seq) + 1)
          completions;
        drain ()
  in
  drain ();
  checkb "nothing comes back from an idle runtime" true
    (Runtime.poll rt ~block:true = []);
  Runtime.shutdown rt;
  checkb "every task completed exactly once" true
    (Array.for_all (fun c -> c = 1) completed);
  checkb "every task ran exactly once" true
    (Array.for_all (fun r -> Atomic.get r = 1) runs)

let test_domains_shutdown_drains_queue () =
  (* Both workers block in their first task until a helper opens the
     gate, well after [shutdown] has closed the backend: the other tasks
     are still queued when it does, and must all run before it returns. *)
  let n = 200 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  let gate = Atomic.make false in
  let wait_for_gate () =
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done
  in
  let rt = Runtime.domains ~jobs:2 (counting_run ~before:wait_for_gate runs) in
  for seq = 0 to n - 1 do
    if Runtime.submit rt ~seq (task_scenario seq) <> None then
      Alcotest.failf "task %d ran on the caller" seq
  done;
  let opener =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Atomic.set gate true)
  in
  Runtime.shutdown rt;
  Domain.join opener;
  checkb "every queued task ran exactly once" true
    (Array.for_all (fun r -> Atomic.get r = 1) runs);
  checkb "submit after shutdown is refused" true
    (match Runtime.submit rt ~seq:0 (task_scenario 0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- the cross-executor determinism matrix ----------------------------- *)

(* One campaign per target family, exported from every backend the
   runtime unifies — inline (jobs 1), worker Domains (jobs 4),
   the async event loop (inflight 8) and a loopback remote manager
   on the event loop — and byte-diffed pairwise. This is the
   tentpole's contract: parallelism placement may change throughput,
   never a byte of the explored history. *)
let matrix_exports ~tag ~iterations ~seed space mk_exec =
  let leg ?remotes ?inflight ~jobs () =
    let result, _ =
      Pool.run ?remotes ?inflight ~batch_size:8 ~jobs ~iterations
        (Config.fitness_guided ~seed ())
        space
        (Pool.Pure (mk_exec ()))
    in
    (Export.summary_to_json ~target:tag result, Export.records_to_csv result)
  in
  let base = leg ~jobs:1 () in
  let legs =
    [ ("jobs=4", leg ~jobs:4 ()); ("inflight=8", leg ~inflight:8 ~jobs:1 ()) ]
  in
  let lb = RM.Loopback.create ~executor:(mk_exec ()) () in
  let remote = leg ~remotes:[ RM.Loopback.spec lb ] ~jobs:1 () in
  RM.Loopback.shutdown lb;
  List.iter
    (fun (name, (json, csv)) ->
      checks (tag ^ " " ^ name ^ " JSON") (fst base) json;
      checks (tag ^ " " ^ name ^ " CSV") (snd base) csv)
    (legs @ [ ("loopback-remote", remote) ])

let test_matrix_mysql () =
  matrix_exports ~tag:"mysql" ~iterations:150 ~seed:41 (Mysql.space ())
    (fun () -> Afex.Executor.of_target (Mysql.target ()))

let test_matrix_netsim () =
  let server = Netsim.httpd_like () in
  matrix_exports ~tag:"netsim" ~iterations:120 ~seed:41 (Netfault.space server)
    (fun () ->
      Afex.Executor.of_scenario_fn
        ~total_blocks:(Netfault.total_request_blocks server)
        ~description:"netsim" (Netfault.run_scenario server))

let replsim_cluster = Replsim.make ~n:6 ~rounds:120 ~seed:9 ()

let test_matrix_replsim () =
  matrix_exports ~tag:"replsim" ~iterations:150 ~seed:21
    (Replfault.multi_space ~arms:2 replsim_cluster)
    (fun () ->
      Afex.Executor.of_scenario_fn
        ~total_blocks:(Replsim.total_blocks replsim_cluster)
        ~description:(Replfault.description replsim_cluster)
        (Replfault.run_scenario replsim_cluster))

let test_sequential_leg_matches_session_run () =
  (* With a window of one the pool's schedule degenerates to exactly the
     core sequential session — the determinism baseline every other
     matrix leg is transitively compared against. *)
  let config = Config.fitness_guided ~seed:41 () in
  let sequential =
    Session.run ~iterations:150 config (Mysql.space ())
      (Afex.Executor.of_target (Mysql.target ()))
  in
  let pooled, _ =
    Pool.run ~batch_size:1 ~jobs:1 ~iterations:150 config (Mysql.space ())
      (Pool.Pure (Afex.Executor.of_target (Mysql.target ())))
  in
  checks "sequential leg JSON"
    (Export.summary_to_json ~target:"mysql" sequential)
    (Export.summary_to_json ~target:"mysql" pooled)

(* --- kill -9 at a sync watermark of the window ------------------------- *)

exception Crash

let test_kill_and_resume_at_watermark () =
  (* sync_every 32 < iterations 150: the campaign hits real mid-flight
     watermarks, and the every:25 cadence writes its snapshot at the
     first one (release 32, where nothing is in flight). Crash at the
     40th journal append — past that snapshot — and the resume must
     restore the *watermark* snapshot (a handful of journaled outcomes
     replayed, not the whole campaign) and still reproduce the
     uninterrupted exports byte-for-byte. *)
  let meta = [ ("format", "1"); ("target", "apache"); ("seed", "7") ] in
  let exports ?checkpoint () =
    let result, _ =
      Pool.run ?checkpoint ~jobs:1 ~batch_size:8 ~sync_every:32 ~iterations:150
        (Config.fitness_guided ~seed:7 ())
        (Apache.space ())
        (Pool.Pure (Afex.Executor.of_target (Apache.target ())))
    in
    (Export.summary_to_json ~target:"apache" result, Export.records_to_csv result)
  in
  let base_json, base_csv = exports () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "afex_runtime_wm_%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let hooks =
        {
          Checkpoint.no_hooks with
          Checkpoint.on_append = (fun n -> if n = 40 then raise Crash);
        }
      in
      (match Checkpoint.start ~hooks ~every:25 ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          let crashed =
            match exports ~checkpoint:cp () with
            | _ -> false
            | exception Crash -> true
          in
          let s = Checkpoint.stats cp in
          Checkpoint.close cp;
          checkb "campaign crashed mid-flight" true crashed;
          checkb "a watermark snapshot was written before the crash" true
            (s.Checkpoint.snapshots_written >= 2));
      match Checkpoint.resume ~every:25 ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Fun.protect
            ~finally:(fun () -> Checkpoint.close cp)
            (fun () ->
              let json, csv = exports ~checkpoint:cp () in
              let s = Checkpoint.stats cp in
              checkb "resumed from the watermark snapshot, not the base" true
                (s.Checkpoint.replayed_records >= 1
                && s.Checkpoint.replayed_records <= 8);
              checks "JSON identical after watermark resume" base_json json;
              checks "CSV identical after watermark resume" base_csv csv))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("domains run each task once", test_domains_run_each_task_once);
      ("domains shutdown drains the queue", test_domains_shutdown_drains_queue);
      ("matrix: mysql", test_matrix_mysql);
      ("matrix: netsim", test_matrix_netsim);
      ("matrix: replsim", test_matrix_replsim);
      ("matrix: sequential leg", test_sequential_leg_matches_session_run);
      ("kill and resume at a watermark", test_kill_and_resume_at_watermark);
    ]
