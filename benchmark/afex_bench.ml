(* afex_bench: the repository's benchmark.

     afex_bench.exe run [--workload NAME]... [--seed S] [--seconds T]
                        [--reps R] [--trace 0|1] [--quick] [--out FILE]
                        [--trace-out FILE]
     afex_bench.exe manifest
     afex_bench.exe compare A.tsv B.tsv

   [child] is internal: [run] re-executes this binary once per rep. See
   README.md in this directory for the workloads and metrics. *)

open Afex_benchmark

let usage () =
  prerr_endline
    "usage: afex_bench.exe run [--workload NAME]... [--seed S] [--seconds \
     T]\n\
    \                          [--reps R] [--trace 0|1] [--quick] [--out \
     FILE]\n\
    \                          [--trace-out FILE]\n\
    \       afex_bench.exe manifest\n\
    \       afex_bench.exe compare A.tsv B.tsv";
  exit 2

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("afex_bench: " ^ s);
      exit 2)
    fmt

let int_arg flag v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> fail "%s expects an integer" flag

let run_cmd args =
  let rec go (o : Runner.opts) = function
    | [] -> o
    | "--workload" :: w :: rest ->
        if not (List.mem w Registry.workload_names) then
          fail "unknown workload %s (one of %s)" w
            (String.concat ", " Registry.workload_names);
        go { o with workloads = o.workloads @ [ w ] } rest
    | "--seed" :: s :: rest -> go { o with seed = int_arg "--seed" s } rest
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some t when t > 0.0 -> go { o with seconds = Some t } rest
        | _ -> fail "--seconds expects a positive number")
    | "--reps" :: r :: rest ->
        let r = int_arg "--reps" r in
        if r < 1 then fail "--reps must be at least 1";
        go { o with reps = Some r } rest
    | "--trace" :: "0" :: rest -> go { o with trace = false } rest
    | "--trace" :: "1" :: rest -> go { o with trace = true } rest
    | "--trace" :: _ -> fail "--trace expects 0 or 1"
    | "--quick" :: rest -> go { o with quick = true } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--trace-out" :: f :: rest -> go { o with trace_out = Some f } rest
    | a :: _ -> fail "unexpected argument %s" a
  in
  let o =
    go
      {
        Runner.workloads = [];
        seed = 0;
        seconds = None;
        reps = None;
        trace = true;
        quick = false;
        out = None;
        trace_out = None;
      }
      args
  in
  let o =
    if o.workloads = [] then { o with workloads = Registry.workload_names }
    else o
  in
  exit (Runner.run o)

let child_cmd args =
  let rec go workload (p : Workloads.params) = function
    | [] -> (workload, p)
    | "--workload" :: w :: rest -> go (Some w) p rest
    | "--seed" :: s :: rest ->
        go workload { p with seed_offset = int_arg "--seed" s } rest
    | "--quick" :: rest -> go workload { p with quick = true } rest
    | "--traced" :: rest -> go workload { p with traced = true } rest
    | "--iterations" :: n :: rest ->
        go workload
          { p with iterations = Some (int_arg "--iterations" n) }
          rest
    | "--events" :: f :: "--pid" :: n :: rest ->
        go workload { p with events = Some (f, int_arg "--pid" n) } rest
    | a :: _ -> fail "unexpected argument %s" a
  in
  let workload, p =
    go None
      {
        Workloads.seed_offset = 0;
        quick = false;
        traced = false;
        iterations = None;
        events = None;
      }
      args
  in
  let workload =
    match workload with Some w -> w | None -> fail "child: --workload missing"
  in
  let o = { Workloads.kv = []; digest = ""; segments = [||] } in
  Workloads.run p o workload;
  List.iter
    (fun (k, v) -> Printf.printf "%s\t%.17g\n" k v)
    (List.rev o.Workloads.kv);
  Printf.printf "digest\t%s\nsegments\t%s\n" o.Workloads.digest
    (String.concat ","
       (Array.to_list (Array.map string_of_int o.Workloads.segments)))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd args
  | [ "manifest" ] -> print_string (Registry.manifest ())
  | [ "compare"; a; b ] -> exit (Compare.run a b)
  | "child" :: args -> child_cmd args
  | _ -> usage ()
