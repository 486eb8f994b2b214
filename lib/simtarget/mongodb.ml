let config_v08 =
  {
    Gen.default_config with
    Gen.name = "mongodb";
    version = "0.8";
    seed = 808;
    n_modules = 9;
    n_buggy_modules = 1;
    n_flaky_modules = 2;
    (* Pre-production code mostly dies cleanly (assertions, aborts handled
       by the test harness); the paper found no way to crash v0.8, so its
       fragility is failure-shaped, not crash-shaped. *)
    buggy =
      {
        Gen.handled = 0.12;
        test_fails = 0.80;
        crash = 0.0;
        crash_in_recovery = 0.0;
        hang = 0.08;
      };
    functions = Libc.standard19;
    funcs_per_module = (3, 5);
    sites_per_module = (5, 10);
    errno_override_rate = 0.0;
    n_tests = 64;
    test_group_size = 8;
    modules_per_group = 2;
    segments_per_template = (10, 18);
    repeat_per_segment = (1, 5);
    mutation_rate = 0.15;
    baseline_coverage = 0.42;
    mean_test_duration_ms = 300.0;
  }

(* v2.0: twice the modules, much longer traces and broader environment
   interaction, but fragility diluted: many flaky modules with a milder mix
   and no concentrated buggy cluster apart from one rare crash site. *)
let config_v20 =
  {
    config_v08 with
    Gen.version = "2.0";
    seed = 2000;
    n_modules = 22;
    n_buggy_modules = 0;
    n_flaky_modules = 18;
    flaky =
      {
        Gen.handled = 0.39;
        test_fails = 0.60;
        crash = 0.0;
        crash_in_recovery = 0.0;
        hang = 0.01;
      };
    errno_override_rate = 0.25;
    sites_per_module = (8, 16);
    segments_per_template = (20, 36);
    repeat_per_segment = (1, 6);
    modules_per_group = 6;
    mutation_rate = 0.35;
    baseline_coverage = 0.50;
    mean_test_duration_ms = 450.0;
  }

let plant_v20_crash target =
  (* The single injection scenario that crashes v2.0 but has no analogue in
     v0.8 (§7.6: "AFEX found an injection scenario that crashes v2.0"). *)
  let target, site =
    Gen.add_callsite target ~module_name:"journal" ~func:"write"
      ~location:"dur_journal.cpp:412"
      ~stack:
        [
          "journal_write (dur_journal.cpp:412)";
          "commit_now (dur.cpp:188)";
          "main (db.cpp:33)";
        ]
      ~behavior:
        (Behavior.with_errno Behavior.Test_fails
           [ ("ENOSPC", Behavior.Crash { in_recovery = true }) ])
      ~recovery_blocks:2
  in
  Gen.splice target ~test_ids:(List.init 24 (fun i -> 8 + i)) ~pos:4 ~site ~repeat:2

let memo_v08 = lazy (Gen.generate config_v08)
let memo_v20 = lazy (plant_v20_crash (Gen.generate config_v20))

let target_v08 () = Lazy.force memo_v08
let target_v20 () = Lazy.force memo_v20

let space_v08 () =
  Spaces.standard ~min_call:1 ~max_call:20 ~funcs:Libc.standard19 (target_v08 ())

let space_v20 () =
  Spaces.standard ~min_call:1 ~max_call:20 ~funcs:Libc.standard19 (target_v20 ())
