let config =
  {
    Gen.default_config with
    Gen.name = "mysql";
    version = "5.1.44";
    seed = 5144;
    n_modules = 26;
    n_buggy_modules = 3;
    n_flaky_modules = 9;
    robust =
      {
        Gen.handled = 0.82;
        test_fails = 0.18;
        crash = 0.0;
        crash_in_recovery = 0.0;
        hang = 0.0;
      };
    functions = Libc.standard19;
    funcs_per_module = (3, 6);
    sites_per_module = (8, 16);
    n_tests = 1147;
    test_group_size = 6;
    modules_per_group = 6;
    segments_per_template = (24, 40);
    repeat_per_segment = (3, 15);
    mutation_rate = 0.30;
    errno_override_rate = 0.25;
    blocks_per_site = (3, 7);
    recovery_blocks_per_site = (0, 2);
    baseline_coverage = 0.54;
    mean_test_duration_ms = 900.0;
  }

type planted = { target : Target.t; double_unlock : int; errmsg : int }

let plant_double_unlock target =
  let target, site =
    Gen.add_callsite target ~module_name:"myisam" ~func:"close"
      ~location:"mi_create.c:831"
      ~stack:
        [
          "mi_create (mi_create.c:831)";
          "create_table_impl (sql_table.cc:4092)";
          "mysql_create_table (sql_table.cc:4258)";
          "main (mysqld.cc:12)";
        ]
      ~behavior:(Behavior.always (Behavior.Crash { in_recovery = true }))
      ~recovery_blocks:2
  in
  (* Reached by the MyISAM table-creation tests only: one functional group
     of six tests plus two stragglers. *)
  (* MyISAM table creation happens in DDL-heavy test blocks throughout the
     suite. *)
  let in_ranges id =
    List.exists
      (fun lo -> id >= lo && id < lo + 12)
      [ 410; 500; 620; 750; 880; 1010 ]
  in
  let reached = List.filter in_ranges (List.init 1147 (fun i -> i)) in
  let target = Gen.splice target ~test_ids:reached ~pos:0 ~site ~repeat:2 in
  (target, site)

let plant_errmsg target =
  let target, site =
    Gen.add_callsite target ~module_name:"errmsg" ~func:"read"
      ~location:"derror.cc:104"
      ~stack:
        [
          "read_texts (derror.cc:104)";
          "init_errmessage (derror.cc:89)";
          "init_common_variables (mysqld.cc:3341)";
          "main (mysqld.cc:12)";
        ]
      ~behavior:(Behavior.always (Behavior.Crash { in_recovery = false }))
      ~recovery_blocks:1
  in
  (* Server-level tests boot mysqld, which reads errmsg.sys during startup,
     making the faulty read the very first read call of those tests; the
     remaining tests reuse a running server. *)
  let in_ranges id = id mod 60 < 30 in
  let reached = List.filter in_ranges (List.init 1147 (fun i -> i)) in
  let target = Gen.splice target ~test_ids:reached ~pos:0 ~site ~repeat:1 in
  (target, site)

let build () =
  let target = Gen.generate config in
  let target, double_unlock = plant_double_unlock target in
  let target, errmsg = plant_errmsg target in
  { target; double_unlock; errmsg }

let memo = lazy (build ())

let target () = (Lazy.force memo).target
let double_unlock_site () = (Lazy.force memo).double_unlock
let errmsg_site () = (Lazy.force memo).errmsg

let space () =
  Spaces.standard ~min_call:1 ~max_call:100 ~funcs:Libc.standard19 (target ())

let known_bug_stacks () =
  let t = target () in
  let stack_of site errno =
    match Callsite.crash_stack (Target.callsite t site) ~errno with
    | Some s -> s
    | None -> []
  in
  [
    ("double-unlock (bug #53268)", stack_of (double_unlock_site ()) "EIO");
    ("errmsg.sys read (bug #25097)", stack_of (errmsg_site ()) "EINTR");
  ]
