(* Microbenchmarks (Bechamel): the §7.7 explorer-throughput claim and the
   latency of the hot paths (injection engine, Levenshtein, DSL parsing). *)

open Bechamel
open Toolkit

module Apache = Afex_simtarget.Apache
module Engine = Afex_injector.Engine
module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome
module Bitset = Afex_stats.Bitset
module Rng = Afex_stats.Rng

let explorer_generation_test () =
  (* Candidate generation + bookkeeping with a zero-cost executor: measures
     how many tests/second the explorer itself can produce (paper: ~8,500/s
     on a 2 GHz Xeon). *)
  let sub = Apache.space () in
  let empty = Bitset.create 1 in
  let executor =
    Afex.Executor.of_fn ~total_blocks:1 ~description:"null" (fun fault ->
        {
          Outcome.fault;
          status = Outcome.Passed;
          triggered = false;
          coverage = empty;
          injection_stack = None;
          crash_stack = None;
          duration_ms = 0.0;
        })
  in
  let explorer = Afex.Explorer.create (Afex.Config.fitness_guided ~seed:1 ()) sub executor in
  Test.make ~name:"explorer generate+report"
    (Staged.stage (fun () ->
         match Afex.Explorer.next explorer with
         | None -> ()
         | Some proposal -> ignore (Afex.Explorer.execute explorer proposal)))

let engine_run_test () =
  let target = Apache.target () in
  let rng = Rng.create 7 in
  Test.make ~name:"injection engine run"
    (Staged.stage (fun () ->
         let fault =
           Fault.make
             ~test_id:(Rng.int rng (Afex_simtarget.Target.n_tests target))
             ~func:"read" ~call_number:(1 + Rng.int rng 10) ()
         in
         ignore (Engine.run target fault)))

let levenshtein_test () =
  let a = [ "libc.so:read"; "read_texts (derror.cc:104)"; "init (x.c:3)"; "main" ] in
  let b = [ "libc.so:close"; "mi_create (mi_create.c:831)"; "init (x.c:3)"; "main" ] in
  Test.make ~name:"levenshtein stack distance"
    (Staged.stage (fun () -> ignore (Afex_quality.Levenshtein.distance_traces a b)))

(* Two 40-frame traces differing in 6 frames, as interned tokens: the
   workload of one candidate-vs-representative comparison in the
   redundancy index. *)
let redundancy_pair () =
  let frame i = Printf.sprintf "lib%d.so:fn_%d (file_%d.c:%d)" (i mod 7) i (i mod 13) (i * 31) in
  let a = List.init 40 frame in
  let b = List.mapi (fun i f -> if i mod 7 = 0 then frame (1000 + i) else f) a in
  let intern = Afex_quality.Trace_intern.create () in
  let ta = Afex_quality.Trace_intern.intern intern a in
  let tb = Afex_quality.Trace_intern.intern intern b in
  let sort t = let s = Array.copy t in Array.sort compare s; s in
  (ta, tb, sort ta, sort tb)

let bounded_distance_test () =
  let ta, tb, _, _ = redundancy_pair () in
  Test.make ~name:"distance_at_most k=13 (40 frames)"
    (Staged.stage (fun () ->
         ignore (Afex_quality.Levenshtein.distance_at_most ~k:13 ta tb)))

let bag_filter_test () =
  let _, _, sa, sb = redundancy_pair () in
  Test.make ~name:"bag/length filter (40 frames)"
    (Staged.stage (fun () -> ignore (Afex_quality.Levenshtein.bag_lower_bound sa sb)))

(* A populated index absorbing a repeat of a known trace — the by-far
   dominant case in a long campaign (one hash probe on interned ids). *)
let index_observe_test () =
  let frame s i = Printf.sprintf "site%d:fn_%d" s i in
  let traces =
    List.init 200 (fun s -> List.init (4 + (s mod 28)) (frame s))
  in
  let intern = Afex_quality.Trace_intern.create () in
  let index = Afex_quality.Index.create ~intern () in
  List.iter (Afex_quality.Index.observe index) traces;
  let repeat = List.nth traces 100 in
  Test.make ~name:"index observe (repeat, 200 distinct)"
    (Staged.stage (fun () -> Afex_quality.Index.observe index repeat))

let feedback_weight_test () =
  let frame s i = Printf.sprintf "site%d:fn_%d" s i in
  let traces =
    List.init 200 (fun s -> List.init (4 + (s mod 28)) (frame s))
  in
  let intern = Afex_quality.Trace_intern.create () in
  let fb = Afex_quality.Feedback.create ~intern () in
  List.iter (Afex_quality.Feedback.register fb) traces;
  let probe = List.mapi (fun i f -> if i = 0 then "other:fn" else f) (List.nth traces 100) in
  Test.make ~name:"feedback weight query (200 distinct)"
    (Staged.stage (fun () -> ignore (Afex_quality.Feedback.weight fb probe)))

(* --- report codec hot paths: one steady-state run_report as a wire
   record --- *)

module Message = Afex_cluster.Message

(* A representative report: mid-campaign coverage (contiguous runs plus
   strays), two stacks whose frames the connection has already seen,
   and a fault, which crosses as its five fields. *)
let wire_report () =
  let rng = Rng.create 42 in
  {
    Message.seq = 1234;
    status = Outcome.Crashed;
    triggered = true;
    fault =
      Fault.make ~test_id:17 ~func:"read" ~call_number:3 ~errno:"EIO"
        ~retval:(-1) ();
    coverage =
      (let b = Bitset.create 400 in
       Bitset.set_run b 0 59;
       for _ = 1 to 40 do
         Bitset.set b (Rng.int rng 400)
       done;
       b);
    injection_stack =
      Some [ "libc.so:read"; "read_texts (derror.cc:104)"; "init (x.c:3)"; "main" ];
    crash_stack = Some [ "libc.so:abort"; "handle_fatal (derror.cc:10)"; "main" ];
    duration_ms = 12.5;
  }

let wire_encode_test () =
  (* Steady state: the dictionary is warm, the buffer is reused — the
     per-report cost on a long-lived connection. *)
  let r = Message.Scenario_result (wire_report ()) in
  let enc = Message.V2.server_enc () in
  let b = Buffer.create 512 in
  Message.V2.encode_reply enc b r;
  Test.make ~name:"run_report encode (wire binary)"
    (Staged.stage (fun () ->
         Buffer.clear b;
         Message.V2.encode_reply enc b r))

let wire_decode_test () =
  let r = Message.Scenario_result (wire_report ()) in
  let enc = Message.V2.server_enc () in
  let dec = Message.V2.client_dec () in
  let warm = Buffer.create 512 in
  Message.V2.encode_reply enc warm r;
  (match Message.V2.decode_replies dec (Buffer.contents warm) with
  | Ok _ -> ()
  | Error e -> failwith e);
  let steady = Buffer.create 512 in
  Message.V2.encode_reply enc steady r;
  let payload = Buffer.contents steady in
  Test.make ~name:"run_report decode (wire binary)"
    (Staged.stage (fun () -> ignore (Message.V2.decode_replies dec payload)))

let varint_roundtrip_test () =
  let values = [| 0; 1; 127; 128; 16_383; 16_384; 2_097_151; max_int |] in
  let b = Buffer.create 80 in
  Test.make ~name:"varint round-trip (8 values)"
    (Staged.stage (fun () ->
         Buffer.clear b;
         Array.iter (Message.add_uv b) values;
         let c = { Message.data = Buffer.contents b; pos = 0 } in
         for _ = 1 to Array.length values do
           match Message.read_uv c with
           | Ok _ -> ()
           | Error e -> failwith e
         done))

let parse_test () =
  let description =
    "function : { malloc, calloc, realloc } errno : { ENOMEM } retval : { 0 } \
     callNumber : [ 1, 100 ] ; function : { read } errno : { EINTR } retVal : { -1 } \
     callNumber : [ 1, 50 ] ;"
  in
  Test.make ~name:"fsdl parse"
    (Staged.stage (fun () ->
         ignore (Afex_faultspace.Fsdl_parser.parse_exn description)))

let tests () =
  Test.make_grouped ~name:"afex" ~fmt:"%s %s"
    [
      explorer_generation_test ();
      engine_run_test ();
      levenshtein_test ();
      bounded_distance_test ();
      bag_filter_test ();
      index_observe_test ();
      feedback_weight_test ();
      parse_test ();
      wire_encode_test ();
      wire_decode_test ();
      varint_roundtrip_test ();
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances (tests ()) in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let img (window, results) =
  Bechamel_notty.Multiple.image_of_ols_results ~rect:window
    ~predictor:Measure.run results

let run () =
  Printf.printf
    "\n================================================================\n\
     Microbenchmarks (\u{00A7}7.7: explorer throughput, hot paths)\n\
     ================================================================\n\n%!";
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ minor_allocated; major_allocated; monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 80; h = 1 }
  in
  let results = benchmark () in
  Notty_unix.output_image (Notty_unix.eol (img (window, results)));
  Printf.printf
    "\n(\"explorer generate+report\" inverted gives candidates/second;\n\
     the paper reports ~8,500/s for its Java prototype.)\n"
