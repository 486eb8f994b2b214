(* Tests for the Domain-based worker pool: determinism across jobs
   settings, the point-keyed outcome cache, and oversubscription. *)

module Pool = Afex_cluster.Pool
module Config = Afex.Config
module Session = Afex.Session
module Test_case = Afex.Test_case
module Point = Afex_faultspace.Point
module Outcome = Afex_injector.Outcome
module Rng = Afex_stats.Rng
module Apache = Afex_simtarget.Apache
module Coreutils = Afex_simtarget.Coreutils
module Mysql = Afex_simtarget.Mysql
module Subspace = Afex_faultspace.Subspace
module Shuffle = Afex_faultspace.Shuffle
module Checkpoint = Afex_cluster.Checkpoint
module Export = Afex_report.Export

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let executor () = Afex.Executor.of_target (Apache.target ())

(* A session's observable history, as comparable data. *)
let history (r : Session.result) =
  List.map
    (fun (c : Test_case.t) ->
      (Point.key c.Test_case.point, Outcome.status_to_string c.Test_case.status,
       c.Test_case.fitness))
    r.Session.executed

let run_jobs ?batch_size ?stop ~jobs ~iterations config =
  Pool.run ?batch_size ?stop ~jobs ~iterations config (Apache.space ())
    (Pool.Pure (executor ()))

(* --- determinism --- *)

let test_history_independent_of_jobs () =
  let run jobs =
    fst (run_jobs ~jobs ~iterations:300 (Config.fitness_guided ~seed:11 ()))
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  checki "same length 1 vs 4" (List.length (history r1)) (List.length (history r4));
  checkb "history 1 = history 2" true (history r1 = history r2);
  checkb "history 1 = history 4" true (history r1 = history r4);
  checki "same covered blocks" r1.Session.covered_blocks r4.Session.covered_blocks;
  checki "same failed" r1.Session.failed r4.Session.failed

let test_batch_one_matches_sequential_session () =
  (* With a window of one candidate, the pool's schedule degenerates to
     exactly Session.run's next/execute/report loop. *)
  let config = Config.fitness_guided ~seed:23 () in
  let sequential =
    Session.run ~iterations:200 config (Apache.space ()) (executor ())
  in
  let pooled, _ = run_jobs ~batch_size:1 ~jobs:1 ~iterations:200 config in
  checkb "identical history" true (history sequential = history pooled)

let test_random_search_deterministic () =
  let run jobs =
    fst (run_jobs ~jobs ~iterations:400 (Config.random_search ~seed:5 ()))
  in
  checkb "random search history jobs-independent" true
    (history (run 1) = history (run 3))

(* --- the memo cache --- *)

let test_cache_hits_on_small_space () =
  (* Random search over coreutils' space with more samples than points:
     repeats are guaranteed, and every repeat must be served by the cache. *)
  let sub = Coreutils.space () in
  let cardinality = Afex_faultspace.Subspace.cardinality sub in
  let iterations = (2 * cardinality) + 50 in
  let result, stats =
    Pool.run ~jobs:2 ~iterations
      (Config.random_search ~seed:7 ())
      sub
      (Pool.Pure (Afex.Executor.of_target (Coreutils.target ())))
  in
  checki "every candidate reported" iterations result.Session.iterations;
  checkb
    (Printf.sprintf "repeats hit the cache (executed %d <= %d)" stats.Pool.executed
       cardinality)
    true
    (stats.Pool.executed <= cardinality);
  checki "hits + executed = iterations" iterations
    (stats.Pool.executed + stats.Pool.cache_hits)

let test_cache_hit_count_jobs_independent () =
  let stats_for jobs =
    let _, s =
      Pool.run ~jobs ~iterations:500
        (Config.random_search ~seed:19 ())
        (Coreutils.space ())
        (Pool.Pure (Afex.Executor.of_target (Coreutils.target ())))
    in
    (s.Pool.executed, s.Pool.cache_hits)
  in
  checkb "cache accounting jobs-independent" true (stats_for 1 = stats_for 4)

let test_memoize_off_executes_everything () =
  let _, stats =
    Pool.run ~jobs:2 ~memoize:false ~iterations:300
      (Config.random_search ~seed:7 ())
      (Coreutils.space ())
      (Pool.Pure (Afex.Executor.of_target (Coreutils.target ())))
  in
  checki "no cache" 0 stats.Pool.cache_hits;
  checki "all executed" 300 stats.Pool.executed

(* --- memo equivalence ---

   A hit is rebuilt from the first run's record and its shared coverage
   set, so the search must not tell the cache is there: with and
   without it, a campaign exports the same JSON and CSV, byte for byte.
   apache's 15,000-test feedback campaign saturates its 11,020 points
   after about 11,500 tests, so most of its late candidates are hits;
   mysql's 5,000 tests never repeat a point. Neither reads a hit's
   coverage once the session has covered every block the hit reaches,
   so a rarity-guided random search of coreutils' 1,653 points, whose
   fitness is the rarity of what each test covered, repeats from its
   first tests on. *)

type campaign = {
  target : string;
  iterations : int;
  config : Config.t;
  space : unit -> Subspace.t;
  executor : unit -> Afex.Executor.t;
}

let apache_campaign =
  {
    target = "apache";
    iterations = 15_000;
    config = { (Config.fitness_guided ~seed:505 ()) with Config.feedback = true };
    space = Apache.space;
    executor = executor;
  }

let mysql_campaign =
  {
    target = "mysql";
    iterations = 5_000;
    config = Config.fitness_guided ~seed:7 ();
    space = Mysql.space;
    executor = (fun () -> Afex.Executor.of_target (Mysql.target ()));
  }

let coreutils_campaign =
  {
    target = "coreutils";
    iterations = 4_000;
    config = Config.with_rarity (Config.random_search ~seed:7 ());
    space = Coreutils.space;
    executor = (fun () -> Afex.Executor.of_target (Coreutils.target ()));
  }

let memo_session ?transform ?checkpoint ?(inflight = 1) ?sub ~memoize c =
  let sub = match sub with Some s -> s | None -> c.space () in
  let pool = Pool.create ~inflight ~jobs:1 (Pool.Pure (c.executor ())) in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Pool.session ?transform ?checkpoint ~memoize ~iterations:c.iterations pool
        c.config sub)

let exports c (r : Session.result) =
  (Export.summary_to_json ~target:c.target r, Export.records_to_csv r)

let distinct_points (r : Session.result) =
  let seen = Point.Tbl.create 16384 in
  List.iter
    (fun (x : Test_case.t) -> Point.Tbl.replace seen x.Test_case.point ())
    r.Session.executed;
  Point.Tbl.length seen

(* Exports equal the reference's, and every repeat was a hit. *)
let check_memoized c what reference (r, stats) =
  let json, csv = exports c r and ref_json, ref_csv = reference in
  Alcotest.(check string) (what ^ ": JSON") ref_json json;
  Alcotest.(check string) (what ^ ": CSV") ref_csv csv;
  checki (what ^ ": hits = iterations - distinct points")
    (c.iterations - distinct_points r) stats.Pool.cache_hits;
  checki (what ^ ": executed + hits = iterations") c.iterations
    (stats.Pool.executed + stats.Pool.cache_hits)

let check_unmemoized c what (r, stats) =
  checki (what ^ ": no hits") 0 stats.Pool.cache_hits;
  checki (what ^ ": all executed") c.iterations stats.Pool.executed;
  exports c r

let memo_equivalence c =
  let reference =
    check_unmemoized c "inline, memo off" (memo_session ~memoize:false c)
  in
  check_memoized c "inline" reference (memo_session ~memoize:true c);
  (* The window holds 32 candidates and the event loop 16 in flight:
     a repeat of a point still running piggybacks on it. *)
  check_memoized c "event loop" reference
    (memo_session ~inflight:16 ~memoize:true c);
  Alcotest.(check (pair string string)) "event loop, memo off" reference
    (check_unmemoized c "event loop, memo off"
       (memo_session ~inflight:16 ~memoize:false c));
  let sh = Shuffle.shuffle_all (Rng.create 3) (c.space ()) in
  let shuffled ~memoize =
    memo_session ~transform:(Shuffle.to_target sh) ~sub:(Shuffle.subspace sh)
      ~memoize c
  in
  check_memoized c "shuffled"
    (check_unmemoized c "shuffled, memo off" (shuffled ~memoize:false))
    (shuffled ~memoize:true);
  reference

let test_memo_equivalence_mysql () = ignore (memo_equivalence mysql_campaign)

let test_memo_equivalence_coreutils () =
  ignore (memo_equivalence coreutils_campaign)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

exception Crash

(* apache's campaign also runs memoized through a checkpoint, killed at
   its 7,000th journal append and resumed, with an empty cache, to the
   end: it must export what the unmemoized campaign exported. *)
let test_memo_equivalence_apache () =
  let c = apache_campaign in
  let reference = memo_equivalence c in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "afex_memo_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  let meta = [ ("target", "apache"); ("seed", "505") ] in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let crash n = if n = 7_000 then raise Crash in
      (match
         Checkpoint.start
           ~hooks:{ Checkpoint.no_hooks with Checkpoint.on_append = crash }
           ~dir meta
       with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Fun.protect
            ~finally:(fun () -> Checkpoint.close cp)
            (fun () ->
              match memo_session ~checkpoint:cp ~memoize:true c with
              | _ -> Alcotest.fail "the campaign outlived its crash"
              | exception Crash -> ()));
      match Checkpoint.resume ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          let r, _ =
            Fun.protect
              ~finally:(fun () -> Checkpoint.close cp)
              (fun () -> memo_session ~checkpoint:cp ~memoize:true c)
          in
          Alcotest.(check (pair string string)) "killed and resumed" reference
            (exports c r))

(* --- oversubscription and edge cases --- *)

let test_more_jobs_than_candidates () =
  let config = Config.fitness_guided ~seed:3 () in
  let oversub, _ = run_jobs ~jobs:8 ~iterations:3 config in
  let single, _ = run_jobs ~jobs:1 ~iterations:3 config in
  checki "exactly three tests" 3 oversub.Session.iterations;
  checkb "same history as jobs=1" true (history single = history oversub)

let test_exhaustive_stops_at_cardinality () =
  let sub = Coreutils.space () in
  let cardinality = Afex_faultspace.Subspace.cardinality sub in
  let result, _ =
    Pool.run ~jobs:4 ~iterations:(cardinality + 100)
      (Config.exhaustive ~seed:1 ())
      sub
      (Pool.Pure (Afex.Executor.of_target (Coreutils.target ())))
  in
  checki "space exhausted exactly once" cardinality result.Session.iterations

let test_stop_target_respected () =
  let stop =
    { Session.matches = (fun c -> Test_case.failed c); count = 5 }
  in
  let run jobs = run_jobs ~stop ~jobs ~iterations:2000 (Config.fitness_guided ~seed:2 ()) in
  let r1, _ = run 1 and r4, _ = run 4 in
  checkb "stopped early" true r1.Session.stopped_early;
  checkb "stop iteration recorded" true (r1.Session.stop_iteration <> None);
  checkb "stop point jobs-independent" true
    (r1.Session.stop_iteration = r4.Session.stop_iteration);
  checkb "bounded overshoot: at most one batch beyond the target" true
    (r1.Session.iterations <= 2000)

let test_rejects_bad_arguments () =
  checkb "jobs >= 1" true
    (try ignore (Pool.create ~jobs:0 (Pool.Pure (executor ()))); false
     with Invalid_argument _ -> true);
  checkb "batch_size >= 1" true
    (try
       ignore (run_jobs ~batch_size:0 ~jobs:1 ~iterations:1 (Config.random_search ~seed:1 ()));
       false
     with Invalid_argument _ -> true)

let test_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 (Pool.Pure (executor ())) in
  let _, _ =
    Pool.session ~iterations:50 pool (Config.fitness_guided ~seed:9 ()) (Apache.space ())
  in
  Pool.shutdown pool;
  Pool.shutdown pool;
  checki "jobs recorded" 3 (Pool.jobs pool)

(* --- allocation --- *)

(* With a window of one on the inline runtime, [Pool.session] explores
   exactly [Session.run]'s history, so the minor words it allocates
   beyond [Session.run] are the pool's own: the window, the memo cache
   and the runtime round trip. Tracking each test in three tables (a
   sequence-keyed metadata table, a reorder buffer and a table of points
   in flight) and queueing each inline result until the next poll cost
   about 68 words per test on this campaign. One window table, a cache
   that marks a point in flight, and a [Runtime.submit] that returns the
   inline result cost about 28. The gate fails above 45. *)
let test_pool_allocation_gate () =
  let tests = 5_000 in
  let words f =
    Gc.full_major ();
    let before = Gc.minor_words () in
    let r = f () in
    (r, Gc.minor_words () -. before)
  in
  let config = Config.fitness_guided ~seed:7 () and sub = Mysql.space () in
  let exec = Afex.Executor.of_target (Mysql.target ()) in
  let sequential, sequential_words =
    words (fun () -> Session.run ~iterations:tests config sub exec)
  in
  let config = Config.fitness_guided ~seed:7 () and sub = Mysql.space () in
  let pool = Pool.create ~jobs:1 (Pool.Pure (Afex.Executor.of_target (Mysql.target ()))) in
  let (pooled, _), pooled_words =
    words (fun () -> Pool.session ~batch_size:1 ~iterations:tests pool config sub)
  in
  Pool.shutdown pool;
  checki "tests" tests pooled.Session.iterations;
  checkb "identical history" true (history sequential = history pooled);
  let extra = (pooled_words -. sequential_words) /. float_of_int tests in
  if extra > 45.0 then
    Alcotest.failf
      "Pool.session allocates %.1f minor words per test beyond Session.run \
       (ceiling 45)"
      extra

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("history independent of jobs", test_history_independent_of_jobs);
      ("batch=1 matches Session.run", test_batch_one_matches_sequential_session);
      ("random search deterministic", test_random_search_deterministic);
      ("cache hits on small space", test_cache_hits_on_small_space);
      ("cache accounting jobs-independent", test_cache_hit_count_jobs_independent);
      ("memoize off executes everything", test_memoize_off_executes_everything);
      ("memo equivalence: mysql", test_memo_equivalence_mysql);
      ("memo equivalence: coreutils with rarity", test_memo_equivalence_coreutils);
      ("memo equivalence: apache", test_memo_equivalence_apache);
      ("more jobs than candidates", test_more_jobs_than_candidates);
      ("exhaustive stops at cardinality", test_exhaustive_stops_at_cardinality);
      ("stop target respected", test_stop_target_respected);
      ("rejects bad arguments", test_rejects_bad_arguments);
      ("shutdown idempotent", test_shutdown_idempotent);
      ("pool allocation gate", test_pool_allocation_gate);
    ]
