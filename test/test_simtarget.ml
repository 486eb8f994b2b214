(* Tests for afex_simtarget: libc model, behaviours, program model,
   generator, and the concrete evaluation targets. *)

module Libc = Afex_simtarget.Libc
module Behavior = Afex_simtarget.Behavior
module Callsite = Afex_simtarget.Callsite
module Sim_test = Afex_simtarget.Sim_test
module Target = Afex_simtarget.Target
module Gen = Afex_simtarget.Gen
module Coreutils = Afex_simtarget.Coreutils
module Mysql = Afex_simtarget.Mysql
module Apache = Afex_simtarget.Apache
module Mongodb = Afex_simtarget.Mongodb
module Tracer = Afex_simtarget.Tracer
module Spaces = Afex_simtarget.Spaces
module Subspace = Afex_faultspace.Subspace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Libc --- *)

let test_libc_fig1_functions_modelled () =
  List.iter
    (fun f -> checkb (f ^ " in catalog") true (Libc.find f <> None))
    Libc.fig1_functions

let test_libc_standard19 () =
  checki "19 functions" 19 (List.length Libc.standard19);
  List.iter
    (fun f -> checkb (f ^ " in catalog") true (Libc.find f <> None))
    Libc.standard19

let test_libc_primary_error () =
  let malloc = Libc.find_exn "malloc" in
  let e = Libc.primary_error malloc in
  checks "malloc errno" "ENOMEM" e.Libc.errno;
  checki "malloc returns NULL" 0 e.Libc.retval

let test_libc_category_grouping () =
  (* Canonical order must group functions by category (§2): the category
     sequence never revisits an earlier category. *)
  let cats =
    List.map (fun f -> (Libc.find_exn f).Libc.category) Libc.ordered_names
  in
  (* Compress consecutive duplicates; if every category forms one contiguous
     run, the compressed list has no repeats. *)
  let compressed =
    List.fold_left
      (fun acc c -> match acc with x :: _ when x = c -> acc | _ -> c :: acc)
      [] cats
  in
  checki "each category is one contiguous run"
    (List.length (List.sort_uniq compare compressed))
    (List.length compressed)

let test_libc_errnos () =
  checkb "read has EINTR" true (List.mem "EINTR" (Libc.errnos_of "read"));
  Alcotest.(check (list string)) "unknown empty" [] (Libc.errnos_of "frobnicate")

(* --- Behavior --- *)

let test_behavior_errno_override () =
  let b =
    Behavior.with_errno Behavior.Handled
      [ ("ENOMEM", Behavior.Crash { in_recovery = false }) ]
  in
  checkb "default handled" true (Behavior.reaction_for b ~errno:"EIO" = Behavior.Handled);
  checkb "override crashes" true
    (Behavior.reaction_for b ~errno:"ENOMEM" = Behavior.Crash { in_recovery = false })

let test_behavior_benign () =
  checkb "handled benign" true (Behavior.is_benign Behavior.Handled);
  checkb "crash not benign" false
    (Behavior.is_benign (Behavior.Crash { in_recovery = true }));
  checkb "hang not benign" false (Behavior.is_benign Behavior.Hang)

(* --- Callsite --- *)

let site_fixture behavior =
  Callsite.make ~id:0 ~module_name:"m" ~func:"read" ~location:"m.c:10"
    ~stack:[ "f (m.c:10)"; "main" ] ~blocks:[| 0; 1 |] ~recovery_blocks:[| 2 |]
    ~behavior

let test_callsite_injection_stack () =
  let site = site_fixture (Behavior.always Behavior.Handled) in
  Alcotest.(check (list string)) "libc frame pushed"
    [ "libc.so:read"; "f (m.c:10)"; "main" ]
    (Callsite.injection_stack site)

let test_callsite_crash_stack () =
  let benign = site_fixture (Behavior.always Behavior.Handled) in
  checkb "no crash stack when handled" true (Callsite.crash_stack benign ~errno:"EIO" = None);
  let crashing = site_fixture (Behavior.always (Behavior.Crash { in_recovery = true })) in
  match Callsite.crash_stack crashing ~errno:"EIO" with
  | Some (top :: _) -> checks "recovery frame on top" "recovery@m.c:10" top
  | Some [] | None -> Alcotest.fail "expected recovery crash stack"

(* --- Sim_test --- *)

let trace_fixture = Sim_test.make ~id:0 ~name:"t" ~group:"g"
    ~trace:[| 0; 1; 0; 2; 0 |] ~duration_ms:10.0

let funcs = [| "read"; "close"; "read" |]
let site_func i = funcs.(i)

let test_sim_test_calls_to () =
  checki "read called 4 times" 4 (Sim_test.calls_to trace_fixture ~site_func "read");
  checki "close once" 1 (Sim_test.calls_to trace_fixture ~site_func "close");
  checki "never" 0 (Sim_test.calls_to trace_fixture ~site_func "stat")

let test_sim_test_nth_call () =
  (match Sim_test.nth_call trace_fixture ~site_func "read" ~n:3 with
  | Some (pos, site) ->
      checki "position" 3 pos;
      checki "site" 2 site
  | None -> Alcotest.fail "expected third read");
  checkb "n too large" true (Sim_test.nth_call trace_fixture ~site_func "read" ~n:5 = None);
  checkb "n=0 invalid" true (Sim_test.nth_call trace_fixture ~site_func "read" ~n:0 = None)

(* --- Target validation --- *)

let test_target_validation () =
  let site = site_fixture (Behavior.always Behavior.Handled) in
  let bad_test = Sim_test.make ~id:0 ~name:"t" ~group:"g" ~trace:[| 5 |] ~duration_ms:1.0 in
  checkb "bad trace rejected" true
    (try
       ignore
         (Target.make ~name:"x" ~version:"1" ~callsites:[| site |] ~tests:[| bad_test |]
            ~total_blocks:10);
       false
     with Invalid_argument _ -> true);
  checkb "block out of range rejected" true
    (try
       ignore
         (Target.make ~name:"x" ~version:"1" ~callsites:[| site |] ~tests:[||]
            ~total_blocks:2);
       false
     with Invalid_argument _ -> true)

(* --- Generator --- *)

let test_gen_deterministic () =
  let a = Gen.generate Gen.default_config in
  let b = Gen.generate Gen.default_config in
  checki "same sites" (Array.length (Target.callsites a)) (Array.length (Target.callsites b));
  checki "same blocks" (Target.total_blocks a) (Target.total_blocks b);
  Array.iteri
    (fun i (t : Sim_test.t) ->
      Alcotest.(check (array int))
        (Printf.sprintf "trace %d identical" i)
        t.Sim_test.trace
        (Target.test b i).Sim_test.trace)
    (Target.tests a)

let test_gen_seed_changes_output () =
  let a = Gen.generate Gen.default_config in
  let b = Gen.generate { Gen.default_config with Gen.seed = 43 } in
  let sig_of t =
    Array.to_list (Array.map (fun (x : Sim_test.t) -> Array.to_list x.Sim_test.trace) (Target.tests t))
  in
  checkb "different seeds differ" true (sig_of a <> sig_of b)

let test_gen_shape_respects_config () =
  let cfg = { Gen.default_config with Gen.n_tests = 13; n_modules = 4 } in
  let t = Gen.generate cfg in
  checki "test count" 13 (Target.n_tests t);
  checki "module count" 4 (List.length (Target.modules t))

let test_gen_add_callsite_and_splice () =
  let t = Gen.generate Gen.default_config in
  let blocks_before = Target.total_blocks t in
  let t, site =
    Gen.add_callsite t ~module_name:"extra" ~func:"write" ~location:"e.c:1"
      ~stack:[ "e" ] ~behavior:(Behavior.always Behavior.Hang) ~recovery_blocks:2
  in
  checki "site appended" (Array.length (Target.callsites t) - 1) site;
  checki "blocks grew" (blocks_before + 5) (Target.total_blocks t);
  (* One batched splice per position equals the per-test fold, also
     with two positions per test, as apache plants its strdup bug. *)
  let ids = [ 0; 3; 4; 7; 19 ] in
  let per_test =
    List.fold_left
      (fun acc id ->
        let acc = Gen.splice acc ~test_ids:[ id ] ~pos:2 ~site ~repeat:2 in
        Gen.splice acc ~test_ids:[ id ] ~pos:14 ~site ~repeat:1)
      t ids
  in
  let batched =
    Gen.splice
      (Gen.splice t ~test_ids:ids ~pos:2 ~site ~repeat:2)
      ~test_ids:ids ~pos:14 ~site ~repeat:1
  in
  let traces t = Array.map (fun (c : Sim_test.t) -> c.Sim_test.trace) (Target.tests t) in
  checkb "batched splice = per-test fold" true (traces batched = traces per_test);
  let trace_before = Array.length (Target.test t 0).Sim_test.trace in
  let t = Gen.splice t ~test_ids:[ 0 ] ~pos:2 ~site ~repeat:3 in
  let test0 = Target.test t 0 in
  checki "trace grew" (trace_before + 3) (Array.length test0.Sim_test.trace);
  checki "spliced at pos" site test0.Sim_test.trace.(2);
  (* splice positions are clamped *)
  let t = Gen.splice t ~test_ids:[ 0 ] ~pos:100_000 ~site ~repeat:1 in
  let test0 = Target.test t 0 in
  checki "clamped splice at end" site
    test0.Sim_test.trace.(Array.length test0.Sim_test.trace - 1)

let test_gen_merge () =
  let a = Gen.generate { Gen.default_config with Gen.name = "a"; n_tests = 3 } in
  let b = Gen.generate { Gen.default_config with Gen.name = "b"; n_tests = 4; seed = 9 } in
  let m = Gen.merge ~name:"ab" ~version:"1" [ a; b ] in
  checki "tests concatenated" 7 (Target.n_tests m);
  checki "sites concatenated"
    (Array.length (Target.callsites a) + Array.length (Target.callsites b))
    (Array.length (Target.callsites m));
  checki "blocks summed" (Target.total_blocks a + Target.total_blocks b)
    (Target.total_blocks m);
  (* Target.make validates ids/traces/blocks, so constructing m already
     proves consistency; spot-check the rebasing anyway. *)
  let last = Target.test m 6 in
  checki "rebased id" 6 last.Sim_test.id;
  Array.iter
    (fun s -> checkb "trace points at merged sites" true (s >= Array.length (Target.callsites a)))
    last.Sim_test.trace

let test_gen_remap_behavior () =
  let t = Gen.generate Gen.default_config in
  let t' =
    Gen.remap_behavior t (fun site ->
        if String.equal site.Callsite.func "malloc" then
          Some (Behavior.always Behavior.Test_fails)
        else None)
  in
  Array.iter
    (fun (site : Callsite.t) ->
      if String.equal site.Callsite.func "malloc" then
        checkb "malloc remapped" true
          (Behavior.reaction_for site.Callsite.behavior ~errno:"ENOMEM"
          = Behavior.Test_fails))
    (Target.callsites t')

(* --- Concrete targets: paper dimensions --- *)

let test_coreutils_dimensions () =
  let t = Coreutils.target () in
  checki "29 tests" 29 (Target.n_tests t);
  let sub = Coreutils.space () in
  checki "|Phi_coreutils| = 1653" 1653 (Subspace.cardinality sub)

let test_mysql_dimensions () =
  let sub = Mysql.space () in
  checki "|Phi_MySQL| = 2,179,300" 2_179_300 (Subspace.cardinality sub);
  checki "1147 tests" 1147 (Target.n_tests (Mysql.target ()))

let test_apache_dimensions () =
  let sub = Apache.space () in
  checki "|Phi_Apache| = 11,020" 11_020 (Subspace.cardinality sub);
  checki "58 tests" 58 (Target.n_tests (Apache.target ()))

let test_ls_dimensions () =
  let t = Coreutils.ls_target () in
  checki "11 ls tests (Fig. 1)" 11 (Target.n_tests t);
  checki "29 Fig. 1 functions" 29 (List.length Coreutils.ls_fig1_functions)

let test_ln_mv_have_malloc_calls () =
  let t = Coreutils.target () in
  List.iter
    (fun test_id ->
      let test = Target.test t test_id in
      checkb
        (Printf.sprintf "test %d calls malloc at least twice" test_id)
        true
        (Sim_test.calls_to test ~site_func:(Target.site_func t) "malloc" >= 2))
    Coreutils.ln_mv_test_ids

let test_trimmed_functions_subset () =
  checki "9 trimmed functions" 9 (List.length Coreutils.trimmed_functions);
  List.iter
    (fun f -> checkb (f ^ " within standard19") true (List.mem f Libc.standard19))
    Coreutils.trimmed_functions

let test_env_model_masses () =
  let mass p = List.fold_left (fun acc (f, w) -> if p f then acc +. w else acc) 0.0 Coreutils.env_model in
  let total = mass (fun _ -> true) in
  checkb "masses sum to 1" true (Float.abs (total -. 1.0) < 1e-9);
  checkb "malloc is 40%" true
    (Float.abs (List.assoc "malloc" Coreutils.env_model -. 0.40) < 1e-9)

let test_mongodb_versions () =
  let v08 = Mongodb.target_v08 () and v20 = Mongodb.target_v20 () in
  checks "v0.8" "0.8" (Target.version v08);
  checks "v2.0" "2.0" (Target.version v20);
  checkb "v2.0 is larger" true
    (Array.length (Target.callsites v20) > Array.length (Target.callsites v08))

let test_targets_memoized () =
  (* Repeated accessors return the identical structure (physical equality):
     the lazily-built targets are shared, not regenerated. *)
  checkb "mysql memoized" true (Mysql.target () == Mysql.target ());
  checkb "coreutils memoized" true (Coreutils.target () == Coreutils.target ())

let test_recovery_blocks_fraction_small () =
  (* Recovery code is a small fraction of each codebase (the paper estimates
     0.64% for coreutils); our models keep it under 10%. *)
  List.iter
    (fun t ->
      let frac =
        float_of_int (Target.recovery_blocks_total t)
        /. float_of_int (Target.total_blocks t)
      in
      checkb (Target.name t ^ " recovery fraction sane") true (frac < 0.10))
    [ Coreutils.target (); Apache.target (); Mysql.target () ]

(* --- Tracer --- *)

let test_tracer_counts_positive () =
  let t = Coreutils.target () in
  let counts = Tracer.call_counts t in
  checkb "some functions traced" true (List.length counts > 5);
  List.iter (fun (_, n) -> checkb "positive count" true (n > 0)) counts

let test_tracer_description_parses () =
  let t = Apache.target () in
  let described = Tracer.describe_string t in
  match Afex_faultspace.Fsdl_parser.parse described with
  | Ok ast -> checkb "non-empty" true (List.length ast > 0)
  | Error e -> Alcotest.fail ("tracer output does not parse: " ^ e)

let test_tracer_standard_description_parses () =
  let t = Apache.target () in
  let s = Tracer.standard_description t ~funcs:Libc.standard19 ~max_call:10 in
  match Afex_faultspace.Fsdl.space_of_string s with
  | Ok space ->
      checki "cardinality matches space" 11_020
        (Afex_faultspace.Space.cardinality space)
  | Error e -> Alcotest.fail e

(* --- Spaces --- *)

let test_spaces_standard_axes () =
  let t = Apache.target () in
  let sub = Spaces.standard ~min_call:1 ~max_call:10 ~funcs:Libc.standard19 t in
  checks "axis 0" "testId" (Afex_faultspace.Axis.name (Subspace.axis sub Spaces.axis_test));
  checks "axis 1" "function" (Afex_faultspace.Axis.name (Subspace.axis sub Spaces.axis_func));
  checks "axis 2" "callNumber" (Afex_faultspace.Axis.name (Subspace.axis sub Spaces.axis_call))

let test_spaces_default_max_call () =
  let t = Coreutils.target () in
  let sub = Spaces.standard ~funcs:[ "malloc" ] t in
  let expected = Target.max_calls t "malloc" in
  checki "max call derived from traces" (29 * 1 * expected) (Subspace.cardinality sub)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("libc fig1 functions modelled", test_libc_fig1_functions_modelled);
      ("libc standard19", test_libc_standard19);
      ("libc primary error", test_libc_primary_error);
      ("libc category grouping", test_libc_category_grouping);
      ("libc errnos", test_libc_errnos);
      ("behavior errno override", test_behavior_errno_override);
      ("behavior benign", test_behavior_benign);
      ("callsite injection stack", test_callsite_injection_stack);
      ("callsite crash stack", test_callsite_crash_stack);
      ("sim_test calls_to", test_sim_test_calls_to);
      ("sim_test nth_call", test_sim_test_nth_call);
      ("target validation", test_target_validation);
      ("gen deterministic", test_gen_deterministic);
      ("gen seed changes output", test_gen_seed_changes_output);
      ("gen shape respects config", test_gen_shape_respects_config);
      ("gen add_callsite and splice", test_gen_add_callsite_and_splice);
      ("gen merge", test_gen_merge);
      ("gen remap_behavior", test_gen_remap_behavior);
      ("coreutils dimensions", test_coreutils_dimensions);
      ("mysql dimensions", test_mysql_dimensions);
      ("apache dimensions", test_apache_dimensions);
      ("ls dimensions (fig1)", test_ls_dimensions);
      ("ln/mv call malloc", test_ln_mv_have_malloc_calls);
      ("trimmed functions subset", test_trimmed_functions_subset);
      ("env model masses", test_env_model_masses);
      ("mongodb versions", test_mongodb_versions);
      ("targets memoized", test_targets_memoized);
      ("recovery fraction small", test_recovery_blocks_fraction_small);
      ("tracer counts positive", test_tracer_counts_positive);
      ("tracer description parses", test_tracer_description_parses);
      ("tracer standard description parses", test_tracer_standard_description_parses);
      ("spaces standard axes", test_spaces_standard_axes);
      ("spaces default max call", test_spaces_default_max_call);
    ]
