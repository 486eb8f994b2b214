module Rng = Afex_stats.Rng
module Dist = Afex_stats.Dist

type reaction_mix = {
  handled : float;
  test_fails : float;
  crash : float;
  crash_in_recovery : float;
  hang : float;
}

let robust_mix =
  { handled = 0.90; test_fails = 0.10; crash = 0.0; crash_in_recovery = 0.0; hang = 0.0 }

let flaky_mix =
  { handled = 0.38; test_fails = 0.60; crash = 0.0; crash_in_recovery = 0.0; hang = 0.02 }

let buggy_mix =
  { handled = 0.10; test_fails = 0.25; crash = 0.50; crash_in_recovery = 0.12; hang = 0.03 }

type config = {
  name : string;
  version : string;
  seed : int;
  n_modules : int;
  n_buggy_modules : int;
  n_flaky_modules : int;
  robust : reaction_mix;
  flaky : reaction_mix;
  buggy : reaction_mix;
  functions : string list;
  funcs_per_module : int * int;
  sites_per_module : int * int;
  n_tests : int;
  test_group_size : int;
  modules_per_group : int;
  segments_per_template : int * int;
  repeat_per_segment : int * int;
  mutation_rate : float;
  errno_override_rate : float;
  blocks_per_site : int * int;
  recovery_blocks_per_site : int * int;
  baseline_coverage : float;
  mean_test_duration_ms : float;
}

let default_config =
  {
    name = "toy";
    version = "1.0";
    seed = 42;
    n_modules = 6;
    n_buggy_modules = 1;
    n_flaky_modules = 2;
    robust = robust_mix;
    flaky = flaky_mix;
    buggy = buggy_mix;
    functions = Libc.standard19;
    funcs_per_module = (2, 4);
    sites_per_module = (4, 8);
    n_tests = 20;
    test_group_size = 5;
    modules_per_group = 3;
    segments_per_template = (6, 12);
    repeat_per_segment = (1, 4);
    mutation_rate = 0.15;
    errno_override_rate = 0.25;
    blocks_per_site = (2, 5);
    recovery_blocks_per_site = (0, 2);
    baseline_coverage = 0.40;
    mean_test_duration_ms = 50.0;
  }

type module_class = Robust | Flaky | Buggy

type module_info = {
  m_name : string;
  m_class : module_class;
  m_funcs : string array;
  mutable m_sites : int list;  (** callsite ids, filled during generation *)
}

let sample_range rng (lo, hi) = Rng.int_in rng lo hi

let sample_reaction rng mix =
  let weights =
    [| mix.handled; mix.test_fails; mix.crash; mix.crash_in_recovery; mix.hang |]
  in
  match Dist.sample_weighted rng weights with
  | 0 -> Behavior.Handled
  | 1 -> Behavior.Test_fails
  | 2 -> Behavior.Crash { in_recovery = false }
  | 3 -> Behavior.Crash { in_recovery = true }
  | _ -> Behavior.Hang

let mix_of_class cfg = function
  | Robust -> cfg.robust
  | Flaky -> cfg.flaky
  | Buggy -> cfg.buggy

(* A different reaction for an errno-specific override: make handled sites
   occasionally fragile for one errno and fragile sites occasionally clean,
   modelling partially-correct recovery code. *)
let override_reaction rng = function
  | Behavior.Handled -> Behavior.Test_fails
  | Behavior.Test_fails -> if Rng.bool rng then Behavior.Handled else Behavior.Crash { in_recovery = false }
  | Behavior.Crash _ -> Behavior.Test_fails
  | Behavior.Hang -> Behavior.Test_fails
  | Behavior.Crash_if_recovering -> Behavior.Handled

let make_modules cfg rng =
  let classes =
    Array.init cfg.n_modules (fun i ->
        if i < cfg.n_buggy_modules then Buggy
        else if i < cfg.n_buggy_modules + cfg.n_flaky_modules then Flaky
        else Robust)
  in
  Rng.shuffle rng classes;
  let functions = Array.of_list cfg.functions in
  let n_funcs = Array.length functions in
  (* Buggy modules claim their function slices first; other modules avoid
     those functions when they can (one re-draw). Real immature subsystems
     tend to own their odd corner of the library interface, which is what
     gives the Xfunc axis its crash structure (Fig. 1's vertical bands). *)
  let buggy_owned = Hashtbl.create 8 in
  let draw_slice ~wanted ~avoid_buggy =
    let slice = min n_funcs wanted in
    let slice_at start = Array.init slice (fun j -> functions.((start + j) mod n_funcs)) in
    let first = slice_at (Rng.int rng n_funcs) in
    if avoid_buggy && Array.exists (Hashtbl.mem buggy_owned) first then
      slice_at (Rng.int rng n_funcs)
    else first
  in
  let order =
    (* Assign buggy modules first so their slices are registered. *)
    List.stable_sort
      (fun a b ->
        let rank i = if classes.(i) = Buggy then 0 else 1 in
        compare (rank a) (rank b))
      (List.init cfg.n_modules (fun i -> i))
  in
  let modules = Array.make cfg.n_modules None in
  List.iter
    (fun i ->
      let wanted = sample_range rng cfg.funcs_per_module in
      (* Buggy modules tend to be small, immature subsystems touching few
         library functions: narrower slices concentrate their impact into
         long runs along the function and call axes. *)
      let buggy = classes.(i) = Buggy in
      let wanted = if buggy then max 2 (wanted / 2) else wanted in
      let funcs = draw_slice ~wanted ~avoid_buggy:(not buggy) in
      if buggy then Array.iter (fun f -> Hashtbl.replace buggy_owned f ()) funcs;
      modules.(i) <-
        Some
          {
            m_name = Printf.sprintf "%s_mod%02d" cfg.name i;
            m_class = classes.(i);
            m_funcs = funcs;
            m_sites = [];
          })
    order;
  Array.map Option.get modules

let make_callsites cfg rng modules =
  let sites = ref [] and next_id = ref 0 and next_block = ref 0 in
  let fresh_blocks n =
    let a = Array.init n (fun i -> !next_block + i) in
    next_block := !next_block + n;
    a
  in
  Array.iteri
    (fun mi m ->
      let n_sites = sample_range rng cfg.sites_per_module in
      for si = 0 to n_sites - 1 do
        let func = Rng.pick rng m.m_funcs in
        let line = 100 + (si * 37) + Rng.int rng 30 in
        let location = Printf.sprintf "%s.c:%d" m.m_name line in
        let stack =
          [
            Printf.sprintf "%s_op%d (%s)" m.m_name si location;
            Printf.sprintf "%s_dispatch (%s.c:%d)" m.m_name m.m_name (40 + (mi * 3));
            Printf.sprintf "main (%s.c:12)" cfg.name;
          ]
        in
        let default = sample_reaction rng (mix_of_class cfg m.m_class) in
        let by_errno =
          if Rng.bernoulli rng cfg.errno_override_rate then begin
            match Libc.errnos_of func with
            | [] -> []
            | errnos -> [ (Rng.pick_list rng errnos, override_reaction rng default) ]
          end
          else []
        in
        let behavior = Behavior.with_errno default by_errno in
        let has_recovery =
          match default with
          | Behavior.Handled | Behavior.Test_fails | Behavior.Crash_if_recovering ->
              true
          | Behavior.Crash { in_recovery } -> in_recovery
          | Behavior.Hang -> false
        in
        let recovery_count =
          if has_recovery then sample_range rng cfg.recovery_blocks_per_site else 0
        in
        let site =
          Callsite.make ~id:!next_id ~module_name:m.m_name ~func ~location ~stack
            ~blocks:(fresh_blocks (sample_range rng cfg.blocks_per_site))
            ~recovery_blocks:(fresh_blocks recovery_count)
            ~behavior
        in
        m.m_sites <- !next_id :: m.m_sites;
        sites := site :: !sites;
        incr next_id
      done)
    modules;
  (Array.of_list (List.rev !sites), !next_block)

(* A template is a list of (callsite, repeat) segments shared by the tests
   of one group. *)
let make_template cfg rng modules group_index =
  let n_modules = Array.length modules in
  let chosen =
    (* Deterministic-ish rotation plus randomness, so that every module is
       exercised by some group even when groups are few. *)
    List.init cfg.modules_per_group (fun j ->
        if j = 0 then modules.((group_index + j) mod n_modules)
        else modules.(Rng.int rng n_modules))
  in
  let site_pool =
    List.concat_map (fun m -> m.m_sites) chosen |> Array.of_list
  in
  let n_segments = sample_range rng cfg.segments_per_template in
  List.init n_segments (fun _ ->
      (Rng.pick rng site_pool, sample_range rng cfg.repeat_per_segment))

let mutate_template cfg rng modules template =
  let all_sites = Array.concat (List.map (fun m -> Array.of_list m.m_sites) (Array.to_list modules)) in
  let mutated =
    List.filter_map
      (fun (site, repeat) ->
        if not (Rng.bernoulli rng cfg.mutation_rate) then Some (site, repeat)
        else begin
          match Rng.int rng 3 with
          | 0 -> None (* drop segment *)
          | 1 ->
              (* adjust loop length *)
              let lo, hi = cfg.repeat_per_segment in
              Some (site, max lo (min hi (repeat + (if Rng.bool rng then 1 else -1))))
          | _ -> Some (Rng.pick rng all_sites, repeat) (* retarget *)
        end)
      template
  in
  (* Occasionally append a test-specific segment. *)
  if Rng.bernoulli rng 0.5 then
    mutated @ [ (Rng.pick rng all_sites, sample_range rng cfg.repeat_per_segment) ]
  else mutated

let trace_of_template template =
  Array.of_list
    (List.concat_map (fun (site, repeat) -> List.init repeat (fun _ -> site)) template)

let make_tests cfg rng modules =
  Array.init cfg.n_tests (fun id ->
      let group_index = id / cfg.test_group_size in
      let group = Printf.sprintf "%s_grp%02d" cfg.name group_index in
      (* Template derived from a per-group stream so all members share it. *)
      let group_rng = Rng.create ((cfg.seed * 7919) + (group_index * 31) + 1) in
      let template = make_template cfg group_rng modules group_index in
      let personal = mutate_template cfg rng modules template in
      let trace = trace_of_template personal in
      let duration =
        cfg.mean_test_duration_ms *. (0.7 +. Rng.float rng 0.6)
      in
      Sim_test.make ~id
        ~name:(Printf.sprintf "%s_test%03d" cfg.name id)
        ~group ~trace ~duration_ms:duration)

let generate cfg =
  let rng = Rng.create cfg.seed in
  let modules = make_modules cfg rng in
  let callsites, used_blocks = make_callsites cfg rng modules in
  let tests = make_tests cfg rng modules in
  let coverage = Float.max 0.05 (Float.min 1.0 cfg.baseline_coverage) in
  let total_blocks =
    max used_blocks (int_of_float (float_of_int used_blocks /. coverage))
  in
  Target.make ~name:cfg.name ~version:cfg.version ~callsites ~tests ~total_blocks

let add_callsite target ~module_name ~func ~location ~stack ~behavior ~recovery_blocks =
  let callsites = Target.callsites target in
  let id = Array.length callsites in
  let old_total = Target.total_blocks target in
  let normal = Array.init 3 (fun i -> old_total + i) in
  let recovery = Array.init recovery_blocks (fun i -> old_total + 3 + i) in
  let site =
    Callsite.make ~id ~module_name ~func ~location ~stack ~blocks:normal
      ~recovery_blocks:recovery ~behavior
  in
  let target =
    Target.make ~name:(Target.name target) ~version:(Target.version target)
      ~callsites:(Array.append callsites [| site |])
      ~tests:(Target.tests target)
      ~total_blocks:(old_total + 3 + recovery_blocks)
  in
  (target, id)

let splice target ~test_ids ~pos ~site ~repeat =
  let tests = Array.copy (Target.tests target) in
  List.iter
    (fun test_id ->
      let t = tests.(test_id) in
      let trace = t.Sim_test.trace in
      let pos = max 0 (min (Array.length trace) pos) in
      let trace' =
        Array.concat
          [
            Array.sub trace 0 pos;
            Array.make repeat site;
            Array.sub trace pos (Array.length trace - pos);
          ]
      in
      tests.(test_id) <-
        Sim_test.make ~id:t.Sim_test.id ~name:t.Sim_test.name
          ~group:t.Sim_test.group ~trace:trace'
          ~duration_ms:t.Sim_test.duration_ms)
    test_ids;
  Target.make ~name:(Target.name target) ~version:(Target.version target)
    ~callsites:(Target.callsites target) ~tests ~total_blocks:(Target.total_blocks target)

let shift_callsite offset_sites offset_blocks (site : Callsite.t) =
  Callsite.make
    ~id:(site.Callsite.id + offset_sites)
    ~module_name:site.Callsite.module_name ~func:site.Callsite.func
    ~location:site.Callsite.location ~stack:site.Callsite.stack
    ~blocks:(Array.map (fun b -> b + offset_blocks) site.Callsite.blocks)
    ~recovery_blocks:(Array.map (fun b -> b + offset_blocks) site.Callsite.recovery_blocks)
    ~behavior:site.Callsite.behavior

let merge ~name ~version targets =
  if targets = [] then invalid_arg "Gen.merge: no targets";
  let callsites = ref [] and tests = ref [] in
  let site_offset = ref 0 and block_offset = ref 0 and test_offset = ref 0 in
  List.iter
    (fun target ->
      Array.iter
        (fun site -> callsites := shift_callsite !site_offset !block_offset site :: !callsites)
        (Target.callsites target);
      Array.iter
        (fun (t : Sim_test.t) ->
          let trace = Array.map (fun s -> s + !site_offset) t.Sim_test.trace in
          tests :=
            Sim_test.make ~id:(t.Sim_test.id + !test_offset) ~name:t.Sim_test.name
              ~group:t.Sim_test.group ~trace ~duration_ms:t.Sim_test.duration_ms
            :: !tests)
        (Target.tests target);
      site_offset := !site_offset + Array.length (Target.callsites target);
      block_offset := !block_offset + Target.total_blocks target;
      test_offset := !test_offset + Array.length (Target.tests target))
    targets;
  Target.make ~name ~version
    ~callsites:(Array.of_list (List.rev !callsites))
    ~tests:(Array.of_list (List.rev !tests))
    ~total_blocks:!block_offset

let remap_behavior target f =
  let callsites =
    Array.map
      (fun (site : Callsite.t) ->
        match f site with
        | None -> site
        | Some behavior ->
            Callsite.make ~id:site.Callsite.id ~module_name:site.Callsite.module_name
              ~func:site.Callsite.func ~location:site.Callsite.location
              ~stack:site.Callsite.stack ~blocks:site.Callsite.blocks
              ~recovery_blocks:site.Callsite.recovery_blocks ~behavior)
      (Target.callsites target)
  in
  Target.make ~name:(Target.name target) ~version:(Target.version target) ~callsites
    ~tests:(Target.tests target) ~total_blocks:(Target.total_blocks target)
