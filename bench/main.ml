(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (run with no argument for the full set), or individual
   experiments by name. [--smoke] shrinks the corpus-driven experiments
   to CI-sized inputs. *)

let experiments ~smoke =
  [
    ("fig1", fun () -> Experiments.fig1 ());
    ("table1", fun () -> Experiments.table1 ());
    ("table2", fun () -> Experiments.table2 ());
    ("table3", fun () -> Experiments.table3 ());
    ("fig8", fun () -> Experiments.fig8 ());
    ("table4", fun () -> Experiments.table4 ());
    ("table5", fun () -> Experiments.table5 ());
    ("table6", fun () -> Experiments.table6 ());
    ("fig9", fun () -> Experiments.fig9 ());
    ("scaling", fun () -> Experiments.scaling ());
    ("pool", fun () -> Experiments.pool ());
    ("async", fun () -> Experiments.async ());
    ("steal", fun () -> Experiments.steal ~smoke ());
    ("quality", fun () -> Experiments.quality ~smoke ());
    ("replsim", fun () -> Experiments.replsim ~smoke ());
    ("ablation", fun () -> Experiments.ablation ());
    ("multifault", fun () -> Experiments.multifault ());
    ("seeding", fun () -> Experiments.seeding ());
    ("rarity", fun () -> Experiments.rarity ~smoke ());
    ("perf", fun () -> Experiments.perf ());
    ("micro", fun () -> Micro.run ());
  ]

let usage () =
  print_endline "usage: main.exe [--smoke] [experiment...]";
  print_endline "experiments:";
  List.iter (fun (name, _) -> Printf.printf "  %s\n" name) (experiments ~smoke:false);
  print_endline "(no argument runs everything; --smoke shrinks corpus sizes)"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args in
  let names = List.filter (fun a -> a <> "--smoke") args in
  let experiments = experiments ~smoke in
  match names with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
      if List.mem "--help" names || List.mem "-h" names then usage ()
      else
        List.iter
          (fun name ->
            match List.assoc_opt name experiments with
            | Some f -> f ()
            | None ->
                Printf.eprintf "unknown experiment %S\n" name;
                usage ();
                exit 1)
          names
