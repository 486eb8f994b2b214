let config =
  {
    Gen.default_config with
    Gen.name = "httpd";
    version = "2.3.8";
    seed = 238;
    n_modules = 14;
    n_buggy_modules = 2;
    n_flaky_modules = 7;
    functions = Libc.standard19;
    funcs_per_module = (3, 6);
    sites_per_module = (10, 22);
    n_tests = 58;
    test_group_size = 12;
    modules_per_group = 3;
    segments_per_template = (26, 40);
    repeat_per_segment = (2, 6);
    mutation_rate = 0.15;
    errno_override_rate = 0.25;
    blocks_per_site = (3, 6);
    recovery_blocks_per_site = (0, 2);
    baseline_coverage = 0.45;
    mean_test_duration_ms = 250.0;
  }

type planted = { target : Target.t; strdup_oom : int; latent_log : int }

let plant_strdup_oom target =
  let target, site =
    Gen.add_callsite target ~module_name:"config" ~func:"strdup"
      ~location:"config.c:578"
      ~stack:
        [
          "ap_add_module (config.c:578)";
          "ap_setup_prelinked_modules (config.c:712)";
          "main (main.c:448)";
        ]
      ~behavior:(Behavior.always (Behavior.Crash { in_recovery = false }))
      ~recovery_blocks:0
  in
  (* Module registration with the affected path runs only in the dynamic
     module-loading test groups; each such test registers several modules,
     so the first few strdup calls all pass through the buggy site. *)
  let reached = [ 30; 31; 32; 33; 34; 35; 36; 37; 38; 39; 40; 41 ] in
  let target = Gen.splice target ~test_ids:reached ~pos:2 ~site ~repeat:2 in
  let target = Gen.splice target ~test_ids:reached ~pos:14 ~site ~repeat:1 in
  (target, site)

(* A latent multi-fault bug: the error-log writer handles a failed write
   correctly in normal operation, but if the failure strikes while the
   server is already recovering from an earlier fault, the rotation path
   re-enters a half-initialized buffer and crashes. Unreachable by any
   single-fault probe. *)
let plant_latent_log target =
  let target, site =
    Gen.add_callsite target ~module_name:"log" ~func:"write"
      ~location:"log.c:233"
      ~stack:
        [
          "ap_log_rotate (log.c:233)";
          "ap_log_error (log.c:187)";
          "main (main.c:448)";
        ]
      ~behavior:(Behavior.always Behavior.Crash_if_recovering)
      ~recovery_blocks:2
  in
  (* The bug needs an earlier fault to be HANDLED first, so plant it in the
     tests whose early execution passes through the most graceful-recovery
     sites (log rotation runs in the robust request-serving paths, not in
     the crash-prone corners). *)
  let handled_early (test : Sim_test.t) =
    let count = ref 0 in
    Array.iteri
      (fun i site_id ->
        if i < 20 then begin
          let st = Target.callsite target site_id in
          if st.Callsite.behavior.Behavior.default = Behavior.Handled then incr count
        end)
      test.Sim_test.trace;
    !count
  in
  let scores = Array.map handled_early (Target.tests target) in
  (* A contiguous window of tests (the request-serving functional groups),
     chosen for maximal graceful-recovery density, so the bug's cluster has
     the same test-axis locality as everything else in the space. *)
  let n = Array.length scores in
  let width = 12 in
  let window_sum start =
    let sum = ref 0 in
    for i = start to start + width - 1 do
      sum := !sum + scores.(i)
    done;
    !sum
  in
  let best = ref 0 in
  for start = 0 to n - width do
    if window_sum start > window_sum !best then best := start
  done;
  let reached = List.init width (fun i -> !best + i) in
  let target = Gen.splice target ~test_ids:reached ~pos:20 ~site ~repeat:3 in
  (target, site)

let build () =
  let target = Gen.generate config in
  let target, strdup_oom = plant_strdup_oom target in
  let target, latent_log = plant_latent_log target in
  { target; strdup_oom; latent_log }

let memo = lazy (build ())

let target () = (Lazy.force memo).target
let strdup_oom_site () = (Lazy.force memo).strdup_oom
let latent_log_site () = (Lazy.force memo).latent_log

let multi_space () =
  Spaces.multi ~arms:2 ~min_call:1 ~max_call:6 ~funcs:Libc.standard19 (target ())

let latent_bug_stack () =
  let site = Target.callsite (target ()) (latent_log_site ()) in
  ("recovery@" ^ site.Callsite.location) :: Callsite.injection_stack site

let space () =
  Spaces.standard ~min_call:1 ~max_call:10 ~funcs:Libc.standard19 (target ())

let known_bug_stacks () =
  let t = target () in
  match Callsite.crash_stack (Target.callsite t (strdup_oom_site ())) ~errno:"ENOMEM" with
  | Some s -> [ ("strdup OOM NULL deref (Fig. 7)", s) ]
  | None -> []
