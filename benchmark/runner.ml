(* The [run] command: reps in fresh child processes, reference and traced
   runs, metrics, correctness checks and output. *)

type opts = {
  workloads : string list;
  seed : int;
  seconds : float option;  (** run untraced reps for about this long *)
  reps : int option;  (** or exactly this many *)
  trace : bool;  (** add the traced rep and report per-layer metrics *)
  quick : bool;
  out : string option;
  trace_out : string option;
}

type rep = {
  kv : (string * float) list;
  digest : string;
  segments : float array;  (** ns, see [Workloads.segment] *)
}

let get r k = Option.value (List.assoc_opt k r.kv) ~default:0.0

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)
(* ------------------------------------------------------------------ *)

let parse text =
  List.fold_left
    (fun acc line ->
      match (acc, String.split_on_char '\t' line) with
      | Error _, _ | _, [ "" ] -> acc
      | Ok r, [ "digest"; d ] -> Ok { r with digest = d }
      | Ok r, [ "segments"; l ] -> (
          let ns = if l = "" then [] else String.split_on_char ',' l in
          match List.map float_of_string ns with
          | ns -> Ok { r with segments = Array.of_list ns }
          | exception Failure _ -> Error ("unparsable child output: " ^ line))
      | Ok r, [ k; v ] -> (
          match float_of_string_opt v with
          | Some f -> Ok { r with kv = (k, f) :: r.kv }
          | None -> Error ("unparsable child output: " ^ line))
      | Ok _, _ -> Error ("unparsable child output: " ^ line))
    (Ok { kv = []; digest = ""; segments = [||] })
    (String.split_on_char '\n' text)

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* Re-exec this binary as [child ...]; its stdout carries the rep. *)
let spawn args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let text = In_channel.input_all ic in
  close_in ic;
  let what = String.concat " " args in
  match wait pid with
  | Unix.WEXITED 0 -> parse text
  | Unix.WEXITED n -> Error (Printf.sprintf "%s: exited %d" what n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      Error (Printf.sprintf "%s: killed by signal %d" what n)

let child o ?iterations ?events ~traced workload =
  spawn
    (List.concat
       [
         [ "child"; "--workload"; workload; "--seed"; string_of_int o.seed ];
         (if o.quick then [ "--quick" ] else []);
         (if traced then [ "--traced" ] else []);
         (match iterations with
         | Some n -> [ "--iterations"; string_of_int n ]
         | None -> []);
         (match events with
         | Some (file, pid) -> [ "--events"; file; "--pid"; string_of_int pid ]
         | None -> []);
       ])

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let med reps f = Stat.median (List.map f reps)
let per r k = ratio (get r k) (get r "tests")

(* [f] of segment [i]'s times over the reps, for every segment; [None]
   unless every rep cut the same number of segments (equal histories
   do). *)
let per_segment f reps =
  match reps with
  | [] -> None
  | r0 :: _ ->
      let n = Array.length r0.segments in
      if n = 0 || List.exists (fun r -> Array.length r.segments <> n) reps then
        None
      else
        Some
          (Array.init n (fun i -> f (List.map (fun r -> r.segments.(i)) reps)))

let minimum = List.fold_left Float.min infinity

(* Session wall of a typical rep: the sum of the segment medians. *)
let wall_s reps =
  match per_segment Stat.median reps with
  | Some m -> Array.fold_left ( +. ) 0.0 m /. 1e9
  | None -> med reps (fun r -> get r "wall_s")

let tests_per_s reps = ratio (med reps (fun r -> get r "tests")) (wall_s reps)

let end_to_end reps =
  [
    ("tests_per_s", tests_per_s reps);
    ("setup_s", med reps (fun r -> get r "setup_s"));
    ("alloc_words_per_test", med reps (fun r -> per r "words"));
    ("rss_peak_mb", med reps (fun r -> get r "rss_mb"));
  ]

(* Exact at a fixed seed, so they come from the untraced reps and are
   printed with every run: [compare] pairs them by seed offset. *)
let search reps =
  [
    ("search.ttfv_tests", med reps (fun r -> get r "ttfv_tests"));
    ("search.failure_clusters", med reps (fun r -> get r "failure_clusters"));
  ]

(* The traced reps' slowdown: per segment, the faster of the two traced
   reps against the faster of the two untraced reps run next to them
   (the first and the last), then the median over segments. Host noise
   only ever adds time, so minimums over as many samples on each side
   compare the same quiet-host cost, and with the traced reps run apart
   a slow spell of the host during one of them does not read as tracing
   cost. *)
let trace_overhead_pct reps traced =
  let neighbours =
    match reps with
    | [] -> []
    | first :: _ -> [ first; List.nth reps (List.length reps - 1) ]
  in
  match (per_segment minimum neighbours, per_segment minimum traced) with
  | Some u, Some t when Array.length t = Array.length u ->
      100.0
      *. (Stat.median (List.init (Array.length u) (fun i -> ratio t.(i) u.(i)))
         -. 1.0)
  | _ ->
      let wall rs = minimum (List.map (fun r -> get r "wall_s") rs) in
      100.0 *. (ratio (wall traced) (wall neighbours) -. 1.0)

let span_us t k =
  ratio (get t ("span." ^ k ^ ".ns")) (get t ("span." ^ k ^ ".calls"))
  /. 1000.0

let span_words t k =
  ratio (get t ("span." ^ k ^ ".words")) (get t ("span." ^ k ^ ".calls"))

(* Explorer-thread µs per test outside the executor, from a traced rep. *)
let non_exec_us t =
  (per t "span.explorer.next.ns" +. per t "span.pool.submit.ns"
 +. per t "span.explorer.report.ns")
  /. 1000.0

(* The difference metrics: a checkpointed or remote campaign against the
   plain inline campaign with the same history (its reference run). *)
let checkpoint_overhead_us t = function
  | Some plain ->
      (per t "session_ns" -. per plain "session_ns") /. 1000.0
  | None -> 0.0

let remote_overhead_us reps = function
  | Some plain ->
      (ratio (wall_s reps) (med reps (fun r -> get r "tests")) *. 1e6)
      -. non_exec_us plain
  | None -> 0.0

(* [t] is the first traced rep; the overhead uses all of [traced]. *)
let per_layer workload reps t traced reference =
  let m f = med reps f in
  let v k = m (fun r -> get r k) in
  [
    ("explorer.next_us", span_us t "explorer.next");
    ("explorer.next_words", span_words t "explorer.next");
    ("pool.submit_us", span_us t "pool.submit");
    ("pool.submit_words", span_words t "pool.submit");
    ("explorer.report_us", span_us t "explorer.report");
    ("explorer.report_words", span_words t "explorer.report");
    ("executor.run_us", span_us t "executor.run");
    ("executor.run_p50_us", get t "exec_p50_ns" /. 1000.0);
    ("executor.run_p99_us", get t "exec_p99_ns" /. 1000.0);
    ("executor.run_words", span_words t "executor.run");
    ("executor.calls", get t "span.executor.run.calls");
    ("pool.cache_hit_ratio", m (fun r -> per r "cache_hits"));
    ( "mutator.reject_ratio",
      m (fun r -> ratio (get r "rejects") (get r "proposals")) );
    ( "mutator.masked_reject_ratio",
      m (fun r -> ratio (get r "masked_rejects") (get r "proposals")) );
    ("mutator.random_fallbacks", v "random_fallbacks");
    ("quality.index_observe_us", get t "quality_index_us");
    ("quality.feedback_weigh_us", get t "quality_feedback_us");
    ("quality.distinct_traces", get t "distinct_traces");
    ("rarity.bonus_us", get t "rarity_bonus_us");
    ("rarity.observe_us", get t "rarity_observe_us");
    ( "checkpoint.overhead_us",
      if workload = "mysql-checkpoint" then checkpoint_overhead_us t reference
      else 0.0 );
    ("checkpoint.snapshots", v "ckpt_snapshots");
    ("checkpoint.wal_appends", v "ckpt_wal_appends");
    ("checkpoint.snapshot_bytes", v "ckpt_snapshot_bytes");
    ("checkpoint.snapshot_encode_ms", v "ckpt_encode_ms");
    ("checkpoint.resume_ms", v "ckpt_resume_ms");
    ( "remote.overhead_us",
      if workload = "mysql-remote" then remote_overhead_us reps reference
      else 0.0 );
    ("remote.bytes_per_test", m (fun r -> per r "remote_bytes"));
    ("remote.frames_per_test", m (fun r -> per r "remote_frames"));
    ("remote.retries", v "remote_retries");
    ("remote.fallbacks", v "remote_fallbacks");
    ("async.wakeups_per_test", m (fun r -> per r "async_wakeups"));
    ("message.encode_request_us", get t "msg_encode_request_us");
    ("message.decode_requests_us", get t "msg_decode_requests_us");
    ("message.encode_reply_us", get t "msg_encode_reply_us");
    ("message.decode_replies_us", get t "msg_decode_replies_us");
    ("gc.minor_collections", v "minor_gcs");
    ("gc.major_collections", v "major_gcs");
    ("trace.overhead_pct", trace_overhead_pct reps traced);
    ("search.ttfv_s", get t "ttfv_s");
  ]

(* Operations that failed: remote attempts re-run locally and manager
   errors. An injected fault that fails a test is a finding, not an
   error; an execution that raises aborts the child and fails the run. *)
let errors r =
  int_of_float (get r "remote_fallbacks" +. get r "manager_errors")

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

type outcome = {
  name : string;
  reps : rep list;
  traced : rep list;
  reference : rep option;
  metrics : (string * float) list;
  problems : string list;  (** failed correctness checks *)
  attempted : int;
  failed : int;
}

(* Untraced reps: exactly [--reps], or at least three and then more while
   the next one (assumed as long as the last) still ends within
   [--seconds]. *)
let untraced_reps (o : opts) name problem =
  let started = Unix.gettimeofday () in
  let rec go acc last =
    let n = List.length acc in
    let more =
      match (o.reps, o.seconds) with
      | Some r, _ -> n < r
      | None, Some s -> n < 3 || Unix.gettimeofday () -. started +. last <= s
      | None, None -> n < 3
    in
    if not more then Some (List.rev acc)
    else
      let t0 = Unix.gettimeofday () in
      match child o ~traced:false name with
      | Ok r -> go (r :: acc) (Unix.gettimeofday () -. t0)
      | Error m ->
          problem m;
          None
  in
  go [] 0.0

let check_history name reps traced reference problem =
  match reps with
  | [] -> ()
  | first :: _ ->
      let same what r =
        if r.digest <> first.digest then
          problem (Printf.sprintf "%s: %s history differs" name what)
      in
      List.iteri (fun i r -> same (Printf.sprintf "rep %d vs rep 0:" i) r) reps;
      List.iter (same "traced vs untraced:") traced;
      Option.iter (same "reference campaign vs this one:") reference

let check_traced name t problem =
  let fail fmt = Printf.ksprintf problem fmt in
  if get t "message_failed" <> 0.0 then
    fail "%s: wire v2 shadow replay did not round-trip" name;
  if get t "dropped_spans" > 0.0 then fail "%s: span buffer overflowed" name;
  if Workloads.spans_cover_session name then begin
    let covered = get t "covered_ns" and session = get t "session_ns" in
    if Float.abs (covered -. session) > 0.02 *. session then
      fail "%s: spans cover %.1f%% of session wall (need 98-102%%)" name
        (100.0 *. ratio covered session)
  end

let run_workload (o : opts) ~events name =
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  let attempt ?iterations ?events ~traced w =
    if !problems <> [] then None
    else
      match child o ?iterations ?events ~traced w with
      | Ok r -> Some r
      | Error m ->
          problem m;
          None
  in
  (* Two traced reps, one on each side of the untraced ones (see
     [trace_overhead_pct]); the first gives the per-layer numbers. *)
  let traced_rep ?events () =
    if o.trace then attempt ~traced:true ?events name else None
  in
  let first = traced_rep ?events () in
  let reps = Option.value (untraced_reps o name problem) ~default:[] in
  let traced = Option.to_list first @ Option.to_list (traced_rep ()) in
  let reference =
    Option.bind (Workloads.reference ~quick:o.quick name) (fun (w, n) ->
        attempt ~iterations:n ~traced:o.trace w)
  in
  (* The history is a pure function of the seed, so every rep, the traced
     rep and the reference must agree byte for byte. *)
  check_history name reps traced reference problem;
  let all = reps @ traced in
  if name = "mysql-checkpoint" then
    List.iter
      (fun r ->
        if get r "ckpt_ok" <> 1.0 then
          problem (name ^ ": final snapshot does not decode and resume"))
      all;
  List.iter (fun t -> check_traced name t problem) traced;
  let metrics =
    match (reps, traced) with
    | [], _ -> []
    | _, [] -> end_to_end reps @ search reps
    | _, t :: _ ->
        end_to_end reps @ search reps
        @ per_layer name reps t traced reference
  in
  let runs = all @ Option.to_list reference in
  let attempted =
    int_of_float (List.fold_left (fun a r -> a +. get r "tests") 0.0 runs)
  in
  let failed = List.fold_left (fun a r -> a + errors r) 0 runs in
  if failed > 0 then
    problem (Printf.sprintf "%s: %d operations failed" name failed);
  {
    name;
    reps;
    traced;
    reference;
    metrics;
    problems = List.rev !problems;
    attempted;
    failed;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* Plain files only, read inside the working directory, so a checkout
   that is not a git repository (or lives inside another one) reports
   "unknown" rather than some enclosing repository's commit. *)
let commit () =
  let read f =
    try Some (String.trim (In_channel.with_open_text f In_channel.input_all))
    with Sys_error _ -> None
  in
  let short h = if String.length h >= 7 then String.sub h 0 7 else h in
  let packed ref_ =
    match read (Filename.concat ".git" "packed-refs") with
    | None -> "unknown"
    | Some refs ->
        List.fold_left
          (fun acc line ->
            match String.split_on_char ' ' line with
            | [ h; r ] when r = ref_ -> short h
            | _ -> acc)
          "unknown"
          (String.split_on_char '\n' refs)
  in
  match read (Filename.concat ".git" "HEAD") with
  | None -> "unknown"
  | Some head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; ref_ ] -> (
          match read (Filename.concat ".git" ref_) with
          | Some h -> short h
          | None -> packed ref_)
      | _ -> short head)

let json = Registry.json_string
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* Provenance carried by every result, in the style of the repository's
   bench artifacts: schema, exact command line and commit, plus what else
   shapes the numbers. *)
let header (o : opts) =
  Printf.sprintf
    "\"schema\": 1, \"cmd\": %s, \"commit\": %s, \"nproc\": %d, \"ocaml\": \
     %s, \"seed_offset\": %d, \"reps\": %s, \"seconds\": %s, \"quick\": %b, \
     \"trace\": %b"
    (json (String.concat " " (Array.to_list Sys.argv)))
    (json (commit ()))
    (Domain.recommended_domain_count ())
    (json Sys.ocaml_version) o.seed
    (match o.reps with Some r -> string_of_int r | None -> "null")
    (match o.seconds with Some s -> number s | None -> "null")
    o.quick o.trace

let unit_of name =
  match Registry.find_metric name with Some m -> m.Registry.unit | None -> ""

let metric_json key name v =
  Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json key) (number v)
    (json (unit_of name))

let rep_json r =
  Printf.sprintf "{\"digest\": %s, \"values\": {%s}}" (json r.digest)
    (String.concat ", "
       (List.rev_map
          (fun (k, v) -> Printf.sprintf "%s: %s" (json k) (number v))
          r.kv))

let outcome_json w =
  let reps l = String.concat ", " (List.map rep_json l) in
  Printf.sprintf
    "{\"name\": %s, \"reps\": [%s], \"traced\": [%s], \"reference\": \
     %s, \"metrics\": {%s}, \"problems\": [%s]}"
    (json w.name) (reps w.reps) (reps w.traced)
    (match w.reference with Some r -> rep_json r | None -> "null")
    (String.concat ", " (List.map (fun (k, v) -> metric_json k k v) w.metrics))
    (String.concat ", " (List.map json w.problems))

(* One Chrome trace-event array: a process per workload, the explorer
   thread and (remote only) the manager domain as its threads. *)
let write_trace_out file pieces =
  Out_channel.with_open_text file (fun oc ->
      let first = ref true in
      let emit line =
        output_string oc (if !first then "[\n" else ",\n");
        first := false;
        output_string oc line
      in
      List.iter
        (fun (pid, name, events) ->
          emit
            (Printf.sprintf
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \
                \"args\": {\"name\": %s}}"
               pid (json name));
          List.iter
            (fun (tid, thread) ->
              emit
                (Printf.sprintf
                   "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": %d, \
                    \"tid\": %d, \"args\": {\"name\": %s}}"
                   pid tid (json thread)))
            [ (1, "explorer"); (2, "manager") ];
          if Sys.file_exists events then begin
            In_channel.with_open_text events (fun ic ->
                In_channel.fold_lines
                  (fun () line -> if line <> "" then emit line)
                  () ic);
            Sys.remove events
          end)
        pieces;
      output_string oc (if !first then "[]\n" else "\n]\n"))

let run (o : opts) =
  print_endline ("# {" ^ header o ^ "}");
  let pieces = ref [] in
  let outcomes =
    List.mapi
      (fun i name ->
        let events =
          match o.trace_out with
          | Some _ when o.trace ->
              Workloads.mkdir_p Workloads.tmp_dir;
              let f =
                Filename.concat Workloads.tmp_dir
                  (Printf.sprintf "events-%d-%s" (Unix.getpid ()) name)
              in
              pieces := (i + 1, name, f) :: !pieces;
              Some (f, i + 1)
          | _ -> None
        in
        let w = run_workload o ~events name in
        List.iter
          (fun (k, v) ->
            Printf.printf "%s\t%s\t%s\t%s\n%!" name k (number v) (unit_of k))
          w.metrics;
        List.iter
          (fun p -> prerr_endline ("afex_bench: check failed: " ^ p))
          w.problems;
        w)
      o.workloads
  in
  Option.iter (fun f -> write_trace_out f (List.rev !pieces)) o.trace_out;
  (try Unix.rmdir Workloads.tmp_dir with Unix.Unix_error _ -> ());
  let correct = List.for_all (fun w -> w.problems = []) outcomes in
  let total f = List.fold_left (fun a w -> a + f w) 0 outcomes in
  Option.iter
    (fun file ->
      Out_channel.with_open_text file (fun oc ->
          Printf.fprintf oc "{%s, \"correct\": %b, \"workloads\": [\n%s\n]}\n"
            (header o) correct
            (String.concat ",\n" (List.map outcome_json outcomes))))
    o.out;
  (* The last line holds the metric family the run was asked for, keyed by
     bare name for one workload and by workload/name for several. *)
  let family = if o.trace then Registry.per_layer else Registry.end_to_end in
  let key w name =
    match outcomes with [ _ ] -> name | _ -> w.name ^ "/" ^ name
  in
  let entries =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun (m : Registry.metric) ->
            let name = m.Registry.name in
            Option.map (metric_json (key w name) name)
              (List.assoc_opt name w.metrics))
          family)
      outcomes
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n\
     %!"
    correct
    (max 1 (total (fun w -> w.attempted)))
    (total (fun w -> w.failed))
    (String.concat ", " entries);
  if correct then 0 else 1
