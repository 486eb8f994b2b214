let ls_fig1_functions = Libc.fig1_functions

let ls_config =
  {
    Gen.default_config with
    Gen.name = "ls";
    version = "8.1";
    seed = 1101;
    n_modules = 7;
    n_buggy_modules = 1;
    n_flaky_modules = 3;
    functions = ls_fig1_functions;
    funcs_per_module = (3, 6);
    sites_per_module = (3, 6);
    n_tests = 11;
    test_group_size = 4;
    modules_per_group = 3;
    segments_per_template = (8, 14);
    repeat_per_segment = (1, 2);
    mutation_rate = 0.18;
    baseline_coverage = 0.36;
    mean_test_duration_ms = 12.0;
  }

let utility_config ~name ~seed ~n_tests =
  {
    ls_config with
    Gen.name;
    seed;
    n_tests;
    functions = Libc.standard19;
    n_modules = 6;
    n_buggy_modules = 1;
    n_flaky_modules = 2;
    test_group_size = 3;
  }

(* ln and mv allocate through an xmalloc-style wrapper that aborts cleanly
   when malloc fails; we plant one such site per utility and make sure
   every test calls it at least twice, so that malloc faults at call
   numbers 1 and 2 are meaningful across the whole sub-suite. *)
let with_xmalloc target ~utility =
  let target, xmalloc_site =
    Gen.add_callsite target
      ~module_name:(utility ^ "_xalloc")
      ~func:"malloc"
      ~location:(utility ^ "/xmalloc.c:41")
      ~stack:
        [
          Printf.sprintf "xmalloc (%s/xmalloc.c:41)" utility;
          Printf.sprintf "main (%s/%s.c:102)" utility utility;
        ]
      ~behavior:(Behavior.always Behavior.Test_fails)
      ~recovery_blocks:1
  in
  let test_ids =
    Array.to_list (Array.map (fun (t : Sim_test.t) -> t.Sim_test.id) (Target.tests target))
  in
  let target = Gen.splice target ~test_ids ~pos:1 ~site:xmalloc_site ~repeat:1 in
  Gen.splice target ~test_ids ~pos:6 ~site:xmalloc_site ~repeat:1

let build_ls () = Gen.generate ls_config

let build_ln () =
  with_xmalloc (Gen.generate (utility_config ~name:"ln" ~seed:1102 ~n_tests:9)) ~utility:"ln"

let build_mv () =
  with_xmalloc (Gen.generate (utility_config ~name:"mv" ~seed:1103 ~n_tests:9)) ~utility:"mv"

let build () =
  Gen.merge ~name:"coreutils" ~version:"8.1" [ build_ls (); build_ln (); build_mv () ]

let target_memo = lazy (build ())
let ls_memo = lazy (build_ls ())

let target () = Lazy.force target_memo
let ls_target () = Lazy.force ls_memo

let space () =
  Spaces.standard ~min_call:0 ~max_call:2 ~funcs:Libc.standard19 (target ())

let ln_mv_test_ids = List.init 18 (fun i -> 11 + i)

let trimmed_functions =
  [ "malloc"; "calloc"; "fopen"; "fclose"; "close"; "read"; "stat"; "chdir"; "getcwd" ]

let env_model =
  let file_ops = [ "fopen"; "fclose"; "close"; "read"; "write"; "fgets"; "fflush"; "stat"; "fcntl" ] in
  let dir_ops = [ "opendir"; "closedir"; "chdir"; "getcwd" ] in
  let per_file = 0.50 /. float_of_int (List.length file_ops) in
  let per_dir = 0.10 /. float_of_int (List.length dir_ops) in
  (("malloc", 0.40) :: List.map (fun f -> (f, per_file)) file_ops)
  @ List.map (fun f -> (f, per_dir)) dir_ops
