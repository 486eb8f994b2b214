module Clustering = Afex_quality.Clustering
module Point = Afex_faultspace.Point

type stop = { matches : Test_case.t -> bool; count : int }

type result = {
  strategy : string;
  iterations : int;
  executed : Test_case.t list;
  failed : int;
  crashed : int;
  hung : int;
  triggered : int;
  covered_blocks : int;
  total_blocks : int;
  coverage_percent : float;
  distinct_failure_traces : int;
  distinct_crash_traces : int;
  failure_clusters : int;
  crash_clusters : int;
  crash_cluster_detail : Test_case.t Clustering.cluster list;
  simulated_ms : float;
  sensitivity : float array;
  mutator : Mutator.stats;
  rare_blocks : int option;
  stopped_early : bool;
  stop_iteration : int option;
}

let summarize explorer ~total_blocks ~stopped_early ~stop_iteration =
  let executed = Explorer.records explorer in
  (* The explorer's online indexes already hold the redundancy analysis:
     distinct-trace and cluster counts are O(1) reads, and the crash
     clusters are materialized once here and reused by
     {!crash_cluster_representatives} — the seed implementation re-ran the
     full quadratic clustering for the counts and again for the
     representatives. *)
  let failure_index = Explorer.failure_index explorer in
  let crash_index = Explorer.crash_index explorer in
  (* Items of [crash_index] were observed chronologically, so they align
     with the crash-stack-carrying records in [executed] order. *)
  let crash_cases =
    Array.of_list
      (List.filter (fun c -> c.Test_case.crash_stack <> None) executed)
  in
  let crash_cluster_detail =
    List.map
      (fun members ->
        let members = List.map (fun i -> crash_cases.(i)) members in
        { Clustering.representative = List.hd members; members })
      (Afex_quality.Index.clusters crash_index)
  in
  let covered = Explorer.covered_blocks explorer in
  {
    strategy = Config.strategy_name (Explorer.config explorer).Config.strategy;
    iterations = Explorer.iterations explorer;
    executed;
    failed = Explorer.failed_count explorer;
    crashed = Explorer.crashed_count explorer;
    hung = Explorer.hung_count explorer;
    triggered = Explorer.triggered_count explorer;
    covered_blocks = covered;
    total_blocks;
    coverage_percent =
      (if total_blocks = 0 then 0.0
       else 100.0 *. float_of_int covered /. float_of_int total_blocks);
    distinct_failure_traces = Afex_quality.Index.distinct failure_index;
    distinct_crash_traces = Afex_quality.Index.distinct crash_index;
    failure_clusters = Afex_quality.Index.cluster_count failure_index;
    crash_clusters = Afex_quality.Index.cluster_count crash_index;
    crash_cluster_detail;
    simulated_ms = Explorer.simulated_ms explorer;
    sensitivity = Explorer.sensitivity_probabilities explorer;
    mutator = Mutator.copy_stats (Explorer.mutator_stats explorer);
    rare_blocks =
      (match
         (Explorer.rarity_histogram explorer, (Explorer.config explorer).Config.rarity)
       with
      | Some hist, Some rc -> Some (Rarity.rare_count hist ~cutoff:rc.Config.cutoff)
      | _ -> None);
    stopped_early;
    stop_iteration;
  }

let run ?transform ?stop ?time_budget_ms ~iterations config sub executor =
  let explorer = Explorer.create ?transform config sub executor in
  (* Matches are counted over distinct fault-space points, so strategies
     that sample with replacement (random search) cannot satisfy a "find
     all K" target by rediscovering the same fault. *)
  let matched = Point.Tbl.create 16 and stop_iteration = ref None in
  let target_met () =
    match stop with Some s -> Point.Tbl.length matched >= s.count | None -> false
  in
  let time_exhausted () =
    match time_budget_ms with
    | Some budget -> Explorer.simulated_ms explorer >= budget
    | None -> false
  in
  let rec loop remaining =
    if remaining <= 0 || target_met () || time_exhausted () then ()
    else begin
      match Explorer.next explorer with
      | None -> () (* exhaustive strategy ran out of space *)
      | Some proposal ->
          let case = Explorer.execute explorer proposal in
          (match stop with
          | Some s when s.matches case ->
              Point.Tbl.replace matched case.Test_case.point ();
              if Point.Tbl.length matched >= s.count && !stop_iteration = None then
                stop_iteration := Some (Explorer.iterations explorer)
          | Some _ | None -> ());
          loop (remaining - 1)
    end
  in
  loop iterations;
  summarize explorer ~total_blocks:executor.Executor.total_blocks
    ~stopped_early:(target_met ()) ~stop_iteration:!stop_iteration

(* Built on demand rather than in [summarize]: most callers never read
   it, and for a long session it is the largest block the summary would
   allocate. *)
let failure_curve result =
  let curve = Array.make (List.length result.executed) 0 in
  List.iteri
    (fun i case ->
      let prev = if i = 0 then 0 else curve.(i - 1) in
      curve.(i) <- (if Test_case.failed case then prev + 1 else prev))
    result.executed;
  curve

let top_faults result ~n =
  let sorted =
    List.sort
      (fun a b -> compare b.Test_case.impact a.Test_case.impact)
      result.executed
  in
  List.filteri (fun i _ -> i < n) sorted

let crash_cluster_representatives result =
  List.map
    (fun c -> c.Clustering.representative)
    result.crash_cluster_detail

let found_matching result matches =
  List.length (List.filter matches result.executed)

let pp_summary ppf r =
  Format.fprintf ppf
    "%s: %d tests, %d failed (%d crashes, %d hangs), coverage %.2f%%, %d/%d \
     distinct failure/crash traces, %.1fs simulated"
    r.strategy r.iterations r.failed r.crashed r.hung r.coverage_percent
    r.distinct_failure_traces r.distinct_crash_traces (r.simulated_ms /. 1000.0)

type space_result = {
  per_subspace : (string option * result) list;
  total_iterations : int;
  total_failed : int;
  total_crashed : int;
}

let run_space ?stop ~iterations config space executor =
  let subs = Afex_faultspace.Space.subspaces space in
  let total_cardinality = max 1 (Afex_faultspace.Space.cardinality space) in
  let share card =
    (* Exact while the product fits; cardinalities saturate at [max_int],
       so a huge subspace's share is computed in floats. *)
    if iterations <= max_int / max 1 card then
      max 1 (iterations * card / total_cardinality)
    else
      max 1
        (int_of_float
           (float_of_int iterations
           *. (float_of_int card /. float_of_int total_cardinality)))
  in
  let per_subspace =
    List.mapi
      (fun i sub ->
        let budget = share (Afex_faultspace.Subspace.cardinality sub) in
        let config = { config with Config.seed = config.Config.seed + (31 * i) } in
        (Afex_faultspace.Subspace.label sub, run ?stop ~iterations:budget config sub executor))
      subs
  in
  {
    per_subspace;
    total_iterations =
      List.fold_left (fun acc (_, r) -> acc + r.iterations) 0 per_subspace;
    total_failed = List.fold_left (fun acc (_, r) -> acc + r.failed) 0 per_subspace;
    total_crashed = List.fold_left (fun acc (_, r) -> acc + r.crashed) 0 per_subspace;
  }

let pp_space_summary ppf sr =
  Format.fprintf ppf "union of %d subspaces: %d tests, %d failed, %d crashes@."
    (List.length sr.per_subspace) sr.total_iterations sr.total_failed sr.total_crashed;
  List.iter
    (fun (label, r) ->
      Format.fprintf ppf "  %-16s %a@."
        (Option.value label ~default:"(unlabelled)")
        pp_summary r)
    sr.per_subspace
