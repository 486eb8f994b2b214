(* One rep of one workload. The runner executes each rep in a fresh child
   process (a re-exec of the benchmark binary), so GC state and peak RSS
   never leak from one rep or workload into the next. A rep reports flat
   [name value] pairs plus a digest of its history; [Runner] turns those
   into metrics.

   Every workload is a single-process closed loop: the explorer submits
   whenever its window has room. The benchmark only links the libraries
   and calls their public functions. *)

module Pool = Afex_cluster.Pool
module Checkpoint = Afex_cluster.Checkpoint
module Loopback = Afex_cluster.Remote_manager.Loopback
module Remote_manager = Afex_cluster.Remote_manager
module Async_executor = Afex_cluster.Async_executor
module Config = Afex.Config
module Session = Afex.Session
module Test_case = Afex.Test_case
module Mutator = Afex.Mutator
module Scenario = Afex_faultspace.Scenario
module Point = Afex_faultspace.Point
module Outcome = Afex_injector.Outcome
module Mysql = Afex_simtarget.Mysql
module Apache = Afex_simtarget.Apache
module Replsim = Afex_simtarget.Replsim
module Replfault = Afex_injector.Replfault

type params = {
  seed_offset : int;  (** added to every workload seed *)
  quick : bool;  (** sizes ÷ 20 and a 4-seed panel, for smoke tests *)
  traced : bool;
  iterations : int option;  (** truncate the campaign (reference runs) *)
  events : (string * int) option;  (** trace-event file and its pid *)
}

(* Checkpoint directories and trace-event pieces, below the working
   directory (the checkout root); removed before exit. *)
let tmp_dir = ".afex_bench_tmp"

(* The in-flight window and the memo cache are the CLI [explore]
   defaults. *)
let window = 32
let mysql_tests = 40_000
let checkpoint_tests = 15_000
let apache_tests = 40_000
let replsim_cap = 2_000

(* Single-seed time-to-first-violation is heavy-tailed, so the replsim
   workload runs a panel; the cap bounds a rep's wall time. *)
let replsim_panel = [ 701; 702; 703; 704; 705; 801; 802; 803; 804; 805 ]
let quick_panel = [ 701; 702; 801; 802 ]
let scaled ~quick n = if quick then max 1 (n / 20) else n
let size p n = scaled ~quick:p.quick n

(* The run another workload's history must reproduce: the checkpointed
   campaign is the plain one cut at its length, the remote campaign the
   plain one in full. *)
let reference ~quick = function
  | "mysql-checkpoint" ->
      Some ("mysql-campaign", scaled ~quick checkpoint_tests)
  | "mysql-remote" -> Some ("mysql-campaign", scaled ~quick mysql_tests)
  | _ -> None

(* Workloads whose traced spans cover the explorer thread end to end:
   inline runtime, release hook available. *)
let spans_cover_session = function
  | "mysql-campaign" | "apache-saturated" | "replsim-ttfv" -> true
  | _ -> false

type out = {
  mutable kv : (string * float) list;
  mutable digest : string;
  mutable segments : int array;  (** ns, see [segment] *)
}

let put o k v = o.kv <- (k, v) :: o.kv
let puti o k v = put o k (float_of_int v)
let now () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* Segment clock                                                       *)
(* ------------------------------------------------------------------ *)

(* Every rep, traced or not, cuts its sessions into segments of
   [segment] released tests and times each one. The reps of a workload
   release the same tests in the same order, so a segment is the same
   work in every rep, and the runner can take each segment's median
   across reps: a burst of host noise during one rep then does not reach
   the throughput. A session's last segment holds its remainder. *)
let segment = 500

type segments = {
  seg_ns : int array;
  mutable n_seg : int;
  mutable seg_start : int;
  mutable in_seg : int;  (** releases in the open segment *)
}

let segments ~tests ~sessions =
  {
    seg_ns = Array.make ((tests / segment) + sessions) 0;
    n_seg = 0;
    seg_start = 0;
    in_seg = 0;
  }

let[@inline never] end_segment seg t =
  if seg.n_seg < Array.length seg.seg_ns then begin
    seg.seg_ns.(seg.n_seg) <- t - seg.seg_start;
    seg.n_seg <- seg.n_seg + 1
  end;
  seg.seg_start <- t;
  seg.in_seg <- 0

let tick seg =
  seg.in_seg <- seg.in_seg + 1;
  if seg.in_seg = segment then end_segment seg (now ())

(* ------------------------------------------------------------------ *)
(* Tracing hooks                                                       *)
(* ------------------------------------------------------------------ *)

(* Which shadow replays a workload's traced rep runs: only those of
   layers its sessions use. The failure index runs in every
   [Explorer.report], so its replay always runs. *)
type layers = { feedback : bool; rarity : bool; remote : bool }

let layers ~remote (config : Config.t) =
  {
    feedback = config.Config.feedback;
    rarity = config.Config.rarity <> None;
    remote;
  }

(* What the traced rep records: explorer-thread spans (at most four per
   test), the manager domain's executor spans (remote only), and the
   current session's executed outcomes for the rarity replay, with their
   scenarios for the wire replay. The log arrays are allocated on the
   first execution, so recording allocates nothing per test. The shadow
   replays run as each session ends ([replay]), so the traced rep keeps
   no more of a session alive than the untraced ones do. *)
type recorder = {
  spans : Spans.t;
  manager : Spans.t;
  layers : layers;
  capacity : int;  (** executions one session may log *)
  mutable scenarios : Scenario.t array;
  mutable outcomes : Outcome.t array;
  mutable logged : int;
  index : Shadow.acc;
  feedback : Shadow.acc option;
  bonus : Shadow.acc;
  observe : Shadow.acc;
  wire : Shadow.wire;
  mutable distinct : int;
  mutable wire_ok : bool;
}

let recorder p l ~tests ~sessions =
  if not p.traced then None
  else
    let capacity = (4 * tests) + 64 in
    Some
      {
        spans = Spans.create ~capacity ();
        manager = Spans.create ~capacity:(if l.remote then capacity else 0) ();
        layers = l;
        capacity = (if l.rarity || l.remote then tests / sessions else 0);
        scenarios = [||];
        outcomes = [||];
        logged = 0;
        index = Shadow.acc ();
        feedback = (if l.feedback then Some (Shadow.acc ()) else None);
        bonus = Shadow.acc ();
        observe = Shadow.acc ();
        wire = Shadow.wire ();
        distinct = 0;
        wire_ok = true;
      }

(* Scenarios only for the wire replay: a replsim scenario keeps far more
   alive than its outcome, and logging them slowed traced replsim reps by
   about a tenth. *)
let log r s o =
  if r.logged < r.capacity then begin
    if Array.length r.outcomes = 0 then begin
      r.outcomes <- Array.make r.capacity o;
      if r.layers.remote then r.scenarios <- Array.make r.capacity s
    end;
    if r.layers.remote then r.scenarios.(r.logged) <- s;
    r.outcomes.(r.logged) <- o;
    r.logged <- r.logged + 1
  end

(* The shadow replays of one finished session: its released tests and
   its logged executions, each through fresh instances of the layers the
   workload uses. *)
let replay r (cases : Test_case.t list) =
  r.distinct <-
    r.distinct + Shadow.quality ~index:r.index ~feedback:r.feedback cases;
  if r.layers.rarity then
    Shadow.rarity ~bonus:r.bonus ~observe:r.observe
      (List.init r.logged (fun i -> r.outcomes.(i)));
  if r.layers.remote then
    r.wire_ok <-
      Shadow.message ~per_frame:window r.wire
        (List.init r.logged (fun i -> (r.scenarios.(i), r.outcomes.(i))))
      && r.wire_ok;
  r.logged <- 0

(* On the explorer thread executor entry closes [Submit]; on a manager
   domain the time before a request is idle, not a span. *)
let wrap r ~remote (exec : Afex.Executor.t) =
  let sp = if remote then r.manager else r.spans in
  {
    exec with
    Afex.Executor.run_scenario =
      (fun s ->
        if remote then Spans.mark sp else Spans.close sp Spans.Submit;
        let o = exec.Afex.Executor.run_scenario s in
        log r s o;
        Spans.close sp Spans.Exec;
        o);
  }

let wrap_opt rc ~remote exec =
  match rc with Some r -> wrap r ~remote exec | None -> exec

(* [?transform] fires right after [Explorer.next]; [?stop]'s predicate
   right after [Explorer.report], in every rep, for the segment clock. A
   never-matching predicate with [count = max_int] never stops the
   session. The pool refuses [?stop] together with a checkpoint; there
   the journal hook takes the release's place (see [journal_hooks]). *)
let hooks rc seg ~checkpointed stop =
  let transform =
    Option.map
      (fun r pt ->
        Spans.close r.spans Spans.Next;
        pt)
      rc
  in
  let matches, count =
    match stop with
    | Some s -> (s.Session.matches, s.Session.count)
    | None -> ((fun _ -> false), max_int)
  in
  let matches =
    match rc with
    | Some r ->
        fun c ->
          Spans.release r.spans;
          tick seg;
          matches c
    | None ->
        fun c ->
          tick seg;
          matches c
  in
  (transform, if checkpointed then None else Some { Session.matches; count })

let journal_hooks rc seg =
  {
    Checkpoint.no_hooks with
    Checkpoint.on_append =
      (match rc with
      | Some r ->
          fun _ ->
            Spans.stamp r.spans;
            tick seg
      | None -> fun _ -> tick seg);
  }

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

let first_index pred l =
  let rec go i = function
    | [] -> None
    | x :: rest -> if pred x then Some i else go (i + 1) rest
  in
  go 0 l

(* One [Pool.session], measured and folded into what the reports need.
   The result itself is not kept, so a panel's peak memory is that of
   its largest session, not of all of them together. *)
type session = {
  words : float;  (** minor words allocated on the explorer domain *)
  minor_gcs : int;
  major_gcs : int;
  tests : int;
  stats : Pool.stats;
  mutator : Mutator.stats;
  failure_clusters : int;
  first_violation : int option;  (** 0-based release index *)
  history : string;  (** point key and status of every released test *)
  t_start : int;
  t_end : int;
  stamps0 : int;  (** releases stamped before this session *)
}

let session rc seg ~violation ?stop ?checkpoint ~iterations pool config sub =
  let transform, stop = hooks rc seg ~checkpointed:(checkpoint <> None) stop in
  let stamps0 = match rc with Some r -> Spans.releases r.spans | None -> 0 in
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 =
    match rc with
    | Some r ->
        Spans.mark r.spans;
        Spans.last r.spans
    | None -> now ()
  in
  seg.seg_start <- t0;
  seg.in_seg <- 0;
  let result, stats =
    Pool.session ?transform ?stop ?checkpoint ~batch_size:window ~iterations
      pool config sub
  in
  let t1 = now () in
  end_segment seg t1;
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let executed = result.Session.executed in
  Option.iter (fun r -> replay r executed) rc;
  let b = Buffer.create (24 * result.Session.iterations) in
  List.iter
    (fun (c : Test_case.t) ->
      Buffer.add_string b (Point.key c.Test_case.point);
      Buffer.add_char b ' ';
      Buffer.add_string b (Outcome.status_to_string c.Test_case.status);
      Buffer.add_char b '\n')
    executed;
  {
    words = w1 -. w0;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    tests = result.Session.iterations;
    stats;
    mutator = result.Session.mutator;
    failure_clusters = result.Session.failure_clusters;
    first_violation = first_index violation executed;
    history = Buffer.contents b;
    t_start = t0;
    t_end = t1;
    stamps0;
  }

(* Exported trace timestamps count from here. *)
let start_trace rc =
  match rc with
  | Some r ->
      Spans.start r.spans;
      Spans.start r.manager
  | None -> ()

let setup o f =
  let t0 = now () in
  let x = f () in
  put o "setup_s" (secs (now () - t0));
  x

(* Peak resident set of this process, from the kernel's own accounting. *)
let rss_peak_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' status)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* Whole-rep numbers: a panel's wall time and allocation are those of its
   sessions, so the folding between sessions is not counted. *)
let report_sessions o ~cap sessions =
  put o "wall_s" (secs (sum (fun s -> s.t_end - s.t_start) sessions));
  put o "words" (List.fold_left (fun a s -> a +. s.words) 0.0 sessions);
  puti o "minor_gcs" (sum (fun s -> s.minor_gcs) sessions);
  puti o "major_gcs" (sum (fun s -> s.major_gcs) sessions);
  puti o "tests" (sum (fun s -> s.tests) sessions);
  puti o "executed" (sum (fun s -> s.stats.Pool.executed) sessions);
  puti o "cache_hits" (sum (fun s -> s.stats.Pool.cache_hits) sessions);
  puti o "remote_fallbacks"
    (sum (fun s -> s.stats.Pool.remote_fallbacks) sessions);
  let mut f = sum (fun s -> f s.mutator) sessions in
  puti o "proposals" (mut (fun m -> m.Mutator.proposals));
  puti o "rejects" (mut (fun m -> m.Mutator.rejects));
  puti o "masked_rejects" (mut (fun m -> m.Mutator.masked_rejects));
  puti o "random_fallbacks" (mut (fun m -> m.Mutator.random_fallbacks));
  puti o "failure_clusters" (sum (fun s -> s.failure_clusters) sessions);
  let ttfv s =
    float_of_int (match s.first_violation with Some i -> i + 1 | None -> cap)
  in
  put o "ttfv_tests" (Stat.median (List.map ttfv sessions));
  let histories = List.map (fun s -> s.history) sessions in
  o.digest <- Digest.to_hex (Digest.string (String.concat "--\n" histories))

let span_kv o prefix sp k =
  let s = Spans.summary sp k in
  puti o (prefix ^ ".calls") s.Spans.calls;
  puti o (prefix ^ ".ns") s.Spans.total_ns;
  puti o (prefix ^ ".words") s.Spans.total_words

let write_events p r =
  match p.events with
  | None -> ()
  | Some (file, pid) ->
      Out_channel.with_open_text file (fun oc ->
          List.iter
            (fun e -> output_string oc (e ^ "\n"))
            (Spans.events ~pid ~tid:1 r.spans
            @ Spans.events ~pid ~tid:2 r.manager))

(* Per-layer numbers of the traced rep: span totals, executor latency
   percentiles, time to the first violation, and the shadow replays of
   the layers the workload uses (the others report 0). *)
let report_traced p o r sessions =
  let sp = r.spans in
  let exec_spans = if r.layers.remote then r.manager else sp in
  List.iter
    (fun k ->
      let src = if k = Spans.Exec then exec_spans else sp in
      span_kv o ("span." ^ Spans.name k) src k)
    Spans.kinds;
  let exec = Stat.sorted (Spans.durations exec_spans Spans.Exec) in
  if Array.length exec > 0 then begin
    put o "exec_p50_ns" (Stat.percentile_sorted exec 50.0);
    put o "exec_p99_ns" (Stat.percentile_sorted exec 99.0)
  end;
  puti o "covered_ns" (Spans.covered_ns sp);
  puti o "session_ns" (sum (fun s -> s.t_end - s.t_start) sessions);
  puti o "dropped_spans" (Spans.dropped sp + Spans.dropped r.manager);
  put o "ttfv_s"
    (Stat.median
       (List.map
          (fun s ->
            let at =
              Option.bind s.first_violation (fun i ->
                  Spans.release_at sp (s.stamps0 + i))
            in
            secs (Option.value at ~default:s.t_end - s.t_start))
          sessions));
  puti o "distinct_traces" r.distinct;
  put o "quality_index_us" (Shadow.mean_us r.index);
  put o "quality_feedback_us"
    (Option.fold ~none:0.0 ~some:Shadow.mean_us r.feedback);
  put o "rarity_bonus_us" (Shadow.mean_us r.bonus);
  put o "rarity_observe_us" (Shadow.mean_us r.observe);
  if not r.wire_ok then puti o "message_failed" 1;
  let w = r.wire in
  put o "msg_encode_request_us" (Shadow.mean_us w.Shadow.encode_request);
  put o "msg_decode_requests_us" (Shadow.mean_us w.Shadow.decode_requests);
  put o "msg_encode_reply_us" (Shadow.mean_us w.Shadow.encode_reply);
  put o "msg_decode_replies_us" (Shadow.mean_us w.Shadow.decode_replies);
  write_events p r

let finish p o rc seg ~cap sessions =
  put o "rss_mb" (rss_peak_mb ());
  report_sessions o ~cap sessions;
  o.segments <- Array.sub seg.seg_ns 0 seg.n_seg;
  Option.iter (fun r -> report_traced p o r sessions) rc

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let mysql_setup () =
  let target = Mysql.target () in
  (Mysql.space (), Afex.Executor.of_target target)

let mysql_config p = Config.fitness_guided ~seed:(7 + p.seed_offset) ()

(* A violation on the campaign workloads is a rediscovery of one of the
   target's planted bugs. *)
let planted_crash bugs =
  let stacks =
    List.filter_map (fun (_, s) -> if s = [] then None else Some s) bugs
  in
  fun (c : Test_case.t) ->
    match c.Test_case.crash_stack with
    | Some s -> List.mem s stacks
    | None -> false

(* A plain inline pool, its executor traced when the rep is. *)
let inline_pool rc exec =
  Pool.create ~jobs:1 (Pool.Pure (wrap_opt rc ~remote:false exec))

let mysql_campaign p o =
  let iterations = Option.value p.iterations ~default:(size p mysql_tests) in
  let config = mysql_config p in
  let l = layers ~remote:false config in
  let rc = recorder p l ~tests:iterations ~sessions:1 in
  let seg = segments ~tests:iterations ~sessions:1 in
  let sub, pool =
    setup o (fun () ->
        let sub, exec = mysql_setup () in
        (sub, inline_pool rc exec))
  in
  let violation = planted_crash (Mysql.known_bug_stacks ()) in
  start_trace rc;
  let s = session rc seg ~violation ~iterations pool config sub in
  Pool.shutdown pool;
  finish p o rc seg ~cap:iterations [ s ]

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* After the campaign: the final snapshot must decode and re-encode to
   the same bytes, and the finished directory must resume. *)
let check_snapshot o ~dir meta =
  let bytes =
    In_channel.with_open_bin
      (Filename.concat dir "snapshot.afex")
      In_channel.input_all
  in
  puti o "ckpt_snapshot_bytes" (String.length bytes);
  let encodes =
    match Checkpoint.Snapshot.decode bytes with
    | Ok snap ->
        let t0 = now () in
        let again = Checkpoint.Snapshot.encode snap in
        put o "ckpt_encode_ms" (secs (now () - t0) *. 1000.0);
        again = bytes
    | Error _ -> false
  in
  let t0 = now () in
  let resumes =
    match Checkpoint.resume ~dir meta with
    | Ok c ->
        Checkpoint.close c;
        true
    | Error _ -> false
  in
  put o "ckpt_resume_ms" (secs (now () - t0) *. 1000.0);
  puti o "ckpt_ok" (if encodes && resumes then 1 else 0)

let mysql_checkpoint p o =
  let iterations =
    Option.value p.iterations ~default:(size p checkpoint_tests)
  in
  let config = mysql_config p in
  let l = layers ~remote:false config in
  let rc = recorder p l ~tests:iterations ~sessions:1 in
  let seg = segments ~tests:iterations ~sessions:1 in
  let dir =
    Filename.concat tmp_dir (Printf.sprintf "checkpoint-%d" (Unix.getpid ()))
  in
  let meta =
    [
      ("benchmark", "mysql-checkpoint");
      ("seed", string_of_int (7 + p.seed_offset));
      ("iterations", string_of_int iterations);
    ]
  in
  rm_rf dir;
  let sub, pool, cp =
    setup o (fun () ->
        let sub, exec = mysql_setup () in
        let pool = inline_pool rc exec in
        mkdir_p tmp_dir;
        match Checkpoint.start ~hooks:(journal_hooks rc seg) ~dir meta with
        | Ok cp -> (sub, pool, cp)
        | Error m -> failwith ("checkpoint: " ^ m))
  in
  let violation = planted_crash (Mysql.known_bug_stacks ()) in
  start_trace rc;
  let s =
    session rc seg ~violation ~checkpoint:cp ~iterations pool config sub
  in
  Pool.shutdown pool;
  let st = Checkpoint.stats cp in
  Checkpoint.close cp;
  finish p o rc seg ~cap:iterations [ s ];
  puti o "ckpt_snapshots" st.Checkpoint.snapshots_written;
  puti o "ckpt_wal_appends" st.Checkpoint.wal_appends;
  check_snapshot o ~dir meta;
  rm_rf dir

let apache_saturated p o =
  let iterations = Option.value p.iterations ~default:(size p apache_tests) in
  let config =
    {
      (Config.fitness_guided ~seed:(505 + p.seed_offset) ()) with
      Config.feedback = true;
    }
  in
  let l = layers ~remote:false config in
  let rc = recorder p l ~tests:iterations ~sessions:1 in
  let seg = segments ~tests:iterations ~sessions:1 in
  let sub, pool =
    setup o (fun () ->
        let exec = Afex.Executor.of_target (Apache.target ()) in
        (Apache.space (), inline_pool rc exec))
  in
  let violation = planted_crash (Apache.known_bug_stacks ()) in
  start_trace rc;
  let s = session rc seg ~violation ~iterations pool config sub in
  Pool.shutdown pool;
  finish p o rc seg ~cap:iterations [ s ]

let replsim_deep (c : Test_case.t) =
  match c.Test_case.crash_stack with
  | None -> false
  | Some frames ->
      List.exists
        (fun inv -> List.mem ("invariant:" ^ inv) frames)
        Replsim.deep_invariants

let replsim_ttfv p o =
  let panel = if p.quick then quick_panel else replsim_panel in
  let seeds = List.map (( + ) p.seed_offset) panel in
  let cap = Option.value p.iterations ~default:(size p replsim_cap) in
  let config seed =
    Config.with_rarity ~mask:true (Config.fitness_guided ~seed ())
  in
  let l = layers ~remote:false (config (List.hd seeds)) in
  let tests = cap * List.length seeds in
  let rc = recorder p l ~tests ~sessions:(List.length seeds) in
  let seg = segments ~tests ~sessions:(List.length seeds) in
  let sub, pool =
    setup o (fun () ->
        let cluster = Replsim.make ~n:12 ~rounds:300 ~seed:11 () in
        let exec =
          Afex.Executor.of_scenario_fn
            ~total_blocks:(Replsim.total_blocks cluster)
            ~description:(Replfault.description cluster)
            (Replfault.run_scenario cluster)
        in
        (Replfault.multi_space ~arms:2 cluster, inline_pool rc exec))
  in
  let stop = { Session.matches = replsim_deep; count = 1 } in
  start_trace rc;
  let sessions =
    List.map
      (fun seed ->
        session rc seg ~violation:replsim_deep ~stop ~iterations:cap pool
          (config seed) sub)
      seeds
  in
  Pool.shutdown pool;
  finish p o rc seg ~cap sessions

let mysql_remote p o =
  let iterations = Option.value p.iterations ~default:(size p mysql_tests) in
  let config = mysql_config p in
  let l = layers ~remote:true config in
  let rc = recorder p l ~tests:iterations ~sessions:1 in
  let seg = segments ~tests:iterations ~sessions:1 in
  let sub, lb, pool =
    setup o (fun () ->
        let sub, exec = mysql_setup () in
        let lb =
          Loopback.create ~name:"benchmark"
            ~executor:(wrap_opt rc ~remote:true exec)
            ()
        in
        let pool =
          Pool.create ~remotes:[ Loopback.spec lb ] ~inflight:window ~jobs:0
            (Pool.Pure exec)
        in
        (sub, lb, pool))
  in
  let violation = planted_crash (Mysql.known_bug_stacks ()) in
  start_trace rc;
  let s = session rc seg ~violation ~iterations pool config sub in
  let remotes = List.map snd (Pool.remote_stats pool) in
  let wakeups =
    match Pool.async_stats pool with
    | Some a -> a.Async_executor.wakeups
    | None -> 0
  in
  Pool.shutdown pool;
  Loopback.shutdown lb;
  finish p o rc seg ~cap:iterations [ s ];
  let rsum f = sum f remotes in
  puti o "remote_bytes"
    (rsum (fun r -> r.Remote_manager.bytes_out + r.Remote_manager.bytes_in));
  puti o "remote_frames"
    (rsum (fun r -> r.Remote_manager.frames_out + r.Remote_manager.frames_in));
  puti o "remote_retries" (rsum (fun r -> r.Remote_manager.retries));
  puti o "manager_errors" (rsum (fun r -> r.Remote_manager.manager_errors));
  puti o "async_wakeups" wakeups

let run p o = function
  | "mysql-campaign" -> mysql_campaign p o
  | "mysql-checkpoint" -> mysql_checkpoint p o
  | "apache-saturated" -> apache_saturated p o
  | "replsim-ttfv" -> replsim_ttfv p o
  | "mysql-remote" -> mysql_remote p o
  | w -> invalid_arg ("unknown workload " ^ w)
