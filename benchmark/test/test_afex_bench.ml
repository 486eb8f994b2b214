open Afex_benchmark

let float = Alcotest.float 1e-9

let test_median () =
  Alcotest.check float "odd count" 2.0 (Stat.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check float "even count" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check float "single" 7.0 (Stat.median [ 7.0 ])

(* Expected values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Stat.quartiles xs in
    Alcotest.check float (name ^ " q1") a q1;
    Alcotest.check float (name ^ " q2") b q2;
    Alcotest.check float (name ^ " q3") c q3
  in
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  check "1..10" ten (2.75, 5.5, 8.25);
  check "1..4" [ 4.0; 2.0; 3.0; 1.0 ] (1.25, 2.5, 3.75);
  check "three" [ 5.0; 1.0; 3.0 ] (1.0, 3.0, 5.0);
  check "two" [ 2.0; 1.0 ] (0.75, 1.5, 2.25)

let test_percentile_spread () =
  let hundred = Stat.sorted (List.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.check float "p50" 50.0 (Stat.percentile_sorted hundred 50.0);
  Alcotest.check float "p99" 99.0 (Stat.percentile_sorted hundred 99.0);
  Alcotest.check float "p99 of 10" 9.0
    (Stat.percentile_sorted (Array.init 10 float_of_int) 99.0);
  Alcotest.check float "flat spread" 0.0 (Stat.spread [ 4.0; 4.0; 4.0; 4.0 ]);
  Alcotest.check float "iqr spread" 5.5
    (Stat.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check float "range spread below four" 2.0
    (Stat.spread [ 1.0; 2.0; 3.0 ])

let metric name =
  match Registry.find_metric name with
  | Some m -> m
  | None -> Alcotest.failf "%s is not in the registry" name

let seeded xs = List.mapi (fun i x -> (Some (i + 1), x)) xs

let test_verdicts () =
  let verdict name a b = Compare.verdict (metric name) a b in
  let check what expected got = Alcotest.(check string) what expected got in
  let steady = seeded [ 100.0; 101.0; 99.0; 100.0 ] in
  check "within the share" "within"
    (verdict "tests_per_s" steady (seeded [ 90.0; 91.0; 89.0; 90.0 ]));
  check "worse beyond it" "worse"
    (verdict "tests_per_s" steady (seeded [ 70.0; 71.0; 69.0; 70.0 ]));
  check "better beyond it" "better"
    (verdict "tests_per_s" steady (seeded [ 140.0; 141.0; 139.0; 140.0 ]));
  check "noisy side" "unresolved"
    (verdict "tests_per_s" steady (seeded [ 50.0; 150.0; 60.0; 140.0 ]));
  (* 3 ms of set-up doubling is clock jitter, not a regression *)
  check "setup floor" "within"
    (verdict "setup_s"
       (seeded [ 0.003; 0.003; 0.003 ])
       (seeded [ 0.006; 0.006; 0.006 ]));
  check "setup beyond the floor" "worse"
    (verdict "setup_s"
       (seeded [ 0.003; 0.003; 0.003 ])
       (seeded [ 0.03; 0.03; 0.03 ]));
  check "exact, same seeds" "within"
    (verdict "search.ttfv_tests"
       (seeded [ 573.0; 185.0 ])
       (seeded [ 573.0; 185.0 ]));
  check "exact, one seed moved" "worse"
    (verdict "search.ttfv_tests"
       (seeded [ 573.0; 185.0 ])
       (seeded [ 573.0; 180.0 ]));
  check "exact, no seed in common" "unresolved"
    (verdict "search.failure_clusters"
       [ (Some 1, 79.0) ]
       [ (Some 2, 79.0) ]);
  check "per-layer timing" "-"
    (verdict "explorer.next_us" (seeded [ 1.0 ]) (seeded [ 9.0 ]))

let test_seed_of_header () =
  Alcotest.(check (option int))
    "provenance line" (Some (-3))
    (Compare.seed_of_header
       "# {\"schema\": 1, \"cmd\": \"a, b\", \"seed_offset\": -3, \
        \"reps\": null}");
  Alcotest.(check (option int))
    "metric line" None
    (Compare.seed_of_header "mysql-campaign\tsetup_s\t0.5\ts")

(* One slow segment in one rep does not move the median wall. *)
let test_segment_medians () =
  let rep segments =
    { Runner.kv = [ ("tests", 3.0) ]; digest = ""; segments }
  in
  let reps =
    [
      rep [| 1e9; 1e9; 1e9 |]; rep [| 1e9; 5e9; 1e9 |]; rep [| 1e9; 1e9; 1e9 |];
    ]
  in
  Alcotest.check float "tests per second" 1.0 (Runner.tests_per_s reps);
  Alcotest.check float "a rep twice as slow throughout" 100.0
    (Runner.trace_overhead_pct reps [ rep [| 2e9; 2e9; 2e9 |] ])

(* A scripted clock and word counter: each hook consumes the next
   reading. *)
let fake readings =
  let q = Queue.of_seq (List.to_seq readings) in
  let cur = ref (0, 0) in
  let next () = cur := Queue.pop q in
  Spans.Fake
    {
      clock =
        (fun () ->
          next ();
          fst !cur);
      words = (fun () -> snd !cur);
    }

let summary sp k =
  let s = Spans.summary sp k in
  (s.Spans.calls, s.Spans.total_ns, s.Spans.total_words)

let triple = Alcotest.(triple int int int)

let test_span_partition () =
  let readings =
    [
      (0, 0); (10, 100); (12, 110); (30, 200); (35, 220); (45, 300); (50, 310);
    ]
  in
  let sp = Spans.create ~source:(fake readings) ~capacity:16 () in
  Spans.start sp;
  (* one executed test: next, submit, exec, report *)
  Spans.close sp Spans.Next;
  Spans.close sp Spans.Submit;
  Spans.close sp Spans.Exec;
  Spans.release sp;
  (* a cache hit: no executor span, so submit work lands in report *)
  Spans.close sp Spans.Next;
  Spans.release sp;
  Alcotest.check triple "next" (2, 20, 180) (summary sp Spans.Next);
  Alcotest.check triple "submit" (1, 2, 10) (summary sp Spans.Submit);
  Alcotest.check triple "exec" (1, 18, 90) (summary sp Spans.Exec);
  Alcotest.check triple "report" (2, 10, 30) (summary sp Spans.Report);
  Alcotest.(check int) "spans partition the session" 50 (Spans.covered_ns sp);
  Alcotest.(check (list (Alcotest.float 0.0))) "exec durations" [ 18.0 ]
    (Spans.durations sp Spans.Exec);
  Alcotest.(check int) "releases" 2 (Spans.releases sp);
  Alcotest.(check (option int))
    "second release" (Some 50) (Spans.release_at sp 1);
  Alcotest.(check (option int)) "no third" None (Spans.release_at sp 2)

let test_span_mark_and_overflow () =
  let readings = [ (0, 0); (40, 7); (45, 9); (90, 20); (95, 21) ] in
  let sp = Spans.create ~source:(fake readings) ~capacity:1 () in
  Spans.start sp;
  (* a manager idles between requests: [mark] charges nothing *)
  Spans.mark sp;
  Spans.close sp Spans.Exec;
  Spans.mark sp;
  Spans.close sp Spans.Exec;
  Alcotest.check triple "only the first exec fits" (1, 5, 2)
    (summary sp Spans.Exec);
  Alcotest.(check int) "second one dropped" 1 (Spans.dropped sp)

let test_manifest () =
  let committed =
    In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all
  in
  Alcotest.(check string) "BENCHMARK.json is the registry's manifest" committed
    (Registry.manifest ())

let run_quick () =
  let exe = "../afex_bench.exe" in
  let args = [| exe; "run"; "--quick"; "--reps"; "1" |] in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe args Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, String.split_on_char '\n' (String.trim out))

let test_smoke () =
  let status, lines = run_quick () in
  Alcotest.(check bool) "exits 0" true (status = Unix.WEXITED 0);
  let emitted =
    List.filter_map
      (fun l ->
        match String.split_on_char '\t' l with
        | [ w; m; v; _ ] -> Some ((w, m), float_of_string v)
        | _ -> None)
      lines
  in
  List.iter
    (fun w ->
      List.iter
        (fun (m : Registry.metric) ->
          let name = m.Registry.name in
          match List.assoc_opt (w, name) emitted with
          | None -> Alcotest.failf "%s: %s not emitted" w name
          | Some v when v <= 0.0 && List.mem m Registry.end_to_end ->
              Alcotest.failf "%s: end-to-end %s reads %g" w name v
          | Some _ -> ())
        (Registry.end_to_end @ Registry.per_layer))
    Registry.workload_names;
  let last = List.nth lines (List.length lines - 1) in
  let has s =
    let n = String.length s in
    let rec go i =
      i + n <= String.length last && (String.sub last i n = s || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "correct (digests agree)" true
    (has "{\"correct\": true,");
  Alcotest.(check bool) "no failed operations" true (has "\"failed\": 0,")

(* Compact output prints no "N tests run" summary on success: CI takes
   the repository's test count from the last such line of [dune runtest],
   which must stay the main suite's. *)
let () =
  Alcotest.run ~compact:true "afex_bench"
    [
      ( "stat",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "percentile and spread" `Quick
            test_percentile_spread;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "seed offset from provenance" `Quick
            test_seed_of_header;
          Alcotest.test_case "segment medians" `Quick test_segment_medians;
        ] );
      ( "spans",
        [
          Alcotest.test_case "hooks partition explorer time" `Quick
            test_span_partition;
          Alcotest.test_case "mark and overflow" `Quick
            test_span_mark_and_overflow;
        ] );
      ( "manifest",
        [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_manifest ] );
      ( "smoke",
        [ Alcotest.test_case "run --quick --reps 1" `Slow test_smoke ] );
    ]
