(* afex: command-line front end.

   - afex targets                      list the built-in simulated targets
   - afex describe --target T          print the target's fault space
   - afex explore --target T ...       run a fault exploration session
   - afex inject --target T ...        replay a single fault injection
   - afex serve --target T --port P    run a node manager over TCP
   - afex parse FILE                   validate a fault space description

   The `inject` command is what the generated replay scripts call, so a
   result set exported from `explore` runs unmodified as a regression
   suite. *)

module Target = Afex_simtarget.Target
module Fault = Afex_injector.Fault
module Engine = Afex_injector.Engine
module Outcome = Afex_injector.Outcome
open Cmdliner

let targets_registry :
    (string * (unit -> Target.t) * (unit -> Afex_faultspace.Subspace.t)) list =
  [
    ("mysql", Afex_simtarget.Mysql.target, Afex_simtarget.Mysql.space);
    ("apache", Afex_simtarget.Apache.target, Afex_simtarget.Apache.space);
    ("coreutils", Afex_simtarget.Coreutils.target, Afex_simtarget.Coreutils.space);
    ( "ls",
      Afex_simtarget.Coreutils.ls_target,
      fun () ->
        Afex_simtarget.Spaces.standard ~min_call:1 ~max_call:2
          ~funcs:Afex_simtarget.Coreutils.ls_fig1_functions
          (Afex_simtarget.Coreutils.ls_target ()) );
    ("mongodb-0.8", Afex_simtarget.Mongodb.target_v08, Afex_simtarget.Mongodb.space_v08);
    ("mongodb-2.0", Afex_simtarget.Mongodb.target_v20, Afex_simtarget.Mongodb.space_v20);
  ]

let lookup_target name =
  match
    List.find_opt (fun (n, _, _) -> String.equal n name) targets_registry
  with
  | Some (_, target, space) -> Ok (target (), space ())
  | None ->
      Error
        (Printf.sprintf "unknown target %S (try: %s, replsim[:n=N,...])" name
           (String.concat ", " (List.map (fun (n, _, _) -> n) targets_registry)))

(* The replicated-consensus target is scenario-driven (its fault axes are
   ⟨round, replica, kind, peer⟩, not callsites), so it lives outside the
   Target.t registry: "replsim" or "replsim:n=9,rounds=500,seed=3,churn=7"
   resolves to a cluster whose executor wraps Replfault.run_scenario. *)
module Replsim = Afex_simtarget.Replsim
module Replfault = Afex_injector.Replfault

let parse_replsim name =
  let build params =
    let n = ref 9
    and rounds = ref None
    and seed = ref None
    and churn = ref None in
    let parse_one kv =
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "replsim: expected KEY=INT, got %S" kv)
      | Some i -> (
          let key = String.sub kv 0 i in
          let v = String.sub kv (i + 1) (String.length kv - i - 1) in
          match int_of_string_opt v with
          | None -> Error (Printf.sprintf "replsim: %s: not an integer: %S" key v)
          | Some v -> (
              match key with
              | "n" ->
                  n := v;
                  Ok ()
              | "rounds" ->
                  rounds := Some v;
                  Ok ()
              | "seed" ->
                  seed := Some v;
                  Ok ()
              | "churn" ->
                  churn := Some v;
                  Ok ()
              | _ ->
                  Error
                    (Printf.sprintf
                       "replsim: unknown parameter %S (try n, rounds, seed, churn)"
                       key)))
    in
    let rec go = function
      | [] -> (
          try
            Ok
              (Replsim.make ?rounds:!rounds ?seed:!seed ?churn_period:!churn
                 ~n:!n ())
          with Invalid_argument m -> Error m)
      | kv :: rest -> ( match parse_one kv with Ok () -> go rest | Error _ as e -> e)
    in
    go params
  in
  if String.equal name "replsim" then Some (build [])
  else if String.length name > 8 && String.sub name 0 8 = "replsim:" then
    Some
      (build
         (String.split_on_char ','
            (String.sub name 8 (String.length name - 8))))
  else None

let replsim_executor cluster =
  Afex.Executor.of_scenario_fn
    ~total_blocks:(Replsim.total_blocks cluster)
    ~description:(Replfault.description cluster)
    (Replfault.run_scenario cluster)

(* Exit-on-error variant for commands where a replsim spec is valid. *)
let parse_replsim_exn name =
  match parse_replsim name with
  | None -> None
  | Some (Ok cluster) -> Some cluster
  | Some (Error e) ->
      prerr_endline ("afex: " ^ e);
      exit 2

(* A --manager argument is HOST:PORT. The receive timeout bounds the
   handshake; a manager that then holds a test past the event loop's
   request timeout forfeits it (the test re-runs locally). *)
let parse_manager s =
  let fail () =
    Error (Printf.sprintf "afex: --manager %S: expected HOST:PORT" s)
  in
  match String.rindex_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 && host <> "" ->
          Ok
            (Afex_cluster.Remote_manager.tcp_spec ~recv_timeout_ms:10_000 ~host
               ~port:p ())
      | Some _ | None -> fail ())

(* --- common arguments --- *)

let target_arg =
  let doc = "Simulated system under test." in
  Arg.(required & opt (some string) None & info [ "target"; "t" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "PRNG seed; equal seeds reproduce sessions exactly." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let verbose_arg =
  let doc = "Log exploration progress to stderr (-v for info, -vv for per-test detail)." in
  Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)

let setup_logging verbosity =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level
    (match List.length verbosity with
    | 0 -> Some Logs.Warning
    | 1 -> Some Logs.Info
    | _ -> Some Logs.Debug)

(* --- afex targets --- *)

let targets_cmd =
  let run () =
    List.iter
      (fun (name, target, space) ->
        let t = target () in
        Format.printf "%-12s %a@.             fault space: %d faults@." name
          Target.pp_summary t
          (Afex_faultspace.Subspace.cardinality (space ()));
        let total = Target.total_blocks t
        and recovery = Target.recovery_blocks_total t in
        if total > 0 then
          Format.printf
            "             rarity: %.1f%% recovery-only blocks — the rare \
             frontier `explore --rarity` rewards@."
            (100.0 *. float_of_int recovery /. float_of_int total))
      targets_registry;
    let c = Replsim.make ~n:9 () in
    Format.printf "%-12s %a@.             fault space: %d faults@." "replsim"
      Replsim.pp_summary c
      (Afex_faultspace.Subspace.cardinality (Replfault.space c))
  in
  Cmd.v (Cmd.info "targets" ~doc:"List the built-in simulated targets")
    Term.(const run $ const ())

(* --- afex describe --- *)

let describe_cmd =
  let profile_arg =
    let doc =
      "Emit the per-function error profile (one subspace per (function, \
       errno) pair, as LFI's callsite analyzer would) instead of the \
       standard 3-axis search space."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let run target profile =
    match parse_replsim_exn target with
    | Some cluster ->
        if profile then begin
          prerr_endline
            "afex: --profile needs a callsite-instrumented target; replsim's \
             axes are round/replica/kind/peer";
          exit 2
        end;
        Format.printf "%a@." Replsim.pp_summary cluster;
        Format.printf "single-arm fault space:@.  %a@." Afex_faultspace.Subspace.pp
          (Replfault.space cluster);
        Format.printf "2-arm compound space (--multi):@.  %a@."
          Afex_faultspace.Subspace.pp
          (Replfault.multi_space ~arms:2 cluster);
        Format.printf
          "rarity: %d coverage blocks (%d per replica); recovery/election \
           blocks are hit only under correlated faults, so `explore --rarity \
           --mask` with the default cutoff 0.05 targets them@."
          (Replsim.total_blocks cluster)
          Replsim.blocks_per_replica
    | None -> (
    match lookup_target target with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok (t, sub) ->
        (* On stderr: describe's stdout is a valid FSDL document and stays
           pipeable into `afex parse`. *)
        let rarity_hint () =
          let total = Target.total_blocks t
          and recovery = Target.recovery_blocks_total t in
          if total > 0 then
            Format.eprintf
              "rarity: %d blocks, %d recovery-only (%.1f%%). A block is \
               rare while hit on fewer than --rarity-cutoff of tests; the \
               default 0.05 keeps anything reached less than once per 20 \
               tests on the rewarded frontier (tuning recipe: ADAPTING.md).@."
              total recovery
              (100.0 *. float_of_int recovery /. float_of_int total)
        in
        if profile then begin
          print_string (Afex_simtarget.Tracer.describe_string t);
          rarity_hint ()
        end
        else begin
          let funcs =
            match Afex_faultspace.Axis.kind (Afex_faultspace.Subspace.axis sub 1) with
            | Afex_faultspace.Axis.Symbols a -> Array.to_list a
            | Afex_faultspace.Axis.Range _ | Afex_faultspace.Axis.Subinterval _ -> []
          in
          let max_call =
            Afex_faultspace.Axis.cardinality (Afex_faultspace.Subspace.axis sub 2)
          in
          print_string (Afex_simtarget.Tracer.standard_description t ~funcs ~max_call);
          rarity_hint ()
        end)
  in
  Cmd.v
    (Cmd.info "describe" ~doc:"Print a target's fault space description")
    Term.(const run $ target_arg $ profile_arg)

(* --- afex explore --- *)

let explore_cmd =
  let strategy_arg =
    let doc = "Search strategy: fitness, random, or exhaustive." in
    Arg.(
      value
      & opt
          (enum [ ("fitness", `Fitness); ("random", `Random); ("exhaustive", `Exhaustive) ])
          `Fitness
      & info [ "strategy"; "s" ] ~docv:"STRATEGY" ~doc)
  in
  let iterations_arg =
    let doc = "Number of fault injection tests to execute." in
    Arg.(value & opt int 1000 & info [ "iterations"; "n" ] ~docv:"N" ~doc)
  in
  let feedback_arg =
    let doc = "Enable the online redundancy-feedback loop (section 7.4)." in
    Arg.(value & flag & info [ "feedback" ] ~doc)
  in
  let rarity_arg =
    let doc =
      "Reward tests that cover rarely-hit basic blocks: a global hit-count \
       histogram feeds a fitness bonus of $(b,--rarity-weight) / (1 + hits \
       of the rarest block reached). Off by default, which keeps the \
       paper's fitness pipeline exactly."
    in
    Arg.(value & flag & info [ "rarity" ] ~doc)
  in
  let rarity_weight_arg =
    let doc = "Scale of the rarity bonus (implies nothing without $(b,--rarity))." in
    Arg.(
      value
      & opt float Afex.Config.default_rarity.Afex.Config.weight
      & info [ "rarity-weight" ] ~docv:"W" ~doc)
  in
  let rarity_cutoff_arg =
    let doc =
      "A block counts as rare while hit on fewer than $(docv) of the tests \
       observed so far (used by $(b,--mask) and the serve-side histogram)."
    in
    Arg.(
      value
      & opt float Afex.Config.default_rarity.Afex.Config.cutoff
      & info [ "rarity-cutoff" ] ~docv:"FRAC" ~doc)
  in
  let mask_arg =
    let doc =
      "FairFuzz-style mutation masking (requires $(b,--rarity)): when a \
       parent test reached a block still below the rarity cutoff, pin the \
       axes the sensitivity profile marks as critical and mutate only the \
       rest."
    in
    Arg.(value & flag & info [ "mask" ] ~doc)
  in
  let top_arg =
    let doc = "How many top faults to list in the report." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)
  in
  let replay_arg =
    let doc =
      "Write a replay regression suite for the crash cluster representatives to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "replay-out" ] ~docv:"FILE" ~doc)
  in
  let multi_arg =
    let doc = "Explore 2-fault compound scenarios instead of single faults." in
    Arg.(value & flag & info [ "multi" ] ~doc)
  in
  let seed_analysis_arg =
    let doc = "Seed the initial generation with static-analysis findings (section 4)." in
    Arg.(value & flag & info [ "seed-analysis" ] ~doc)
  in
  let csv_arg =
    let doc = "Write the per-test log as CSV to $(docv)." in
    Arg.(value & opt (some string) None & info [ "export-csv" ] ~docv:"FILE" ~doc)
  in
  let json_arg =
    let doc = "Write the session summary as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "export-json" ] ~docv:"FILE" ~doc)
  in
  let assess_arg =
    let doc =
      "Measure impact precision (1/variance over 10 trials, section 5) for the        $(docv) highest-impact faults."
    in
    Arg.(value & opt (some int) None & info [ "assess" ] ~docv:"K" ~doc)
  in
  let jobs_arg =
    let doc =
      "Execute tests on $(docv) worker domains in parallel. The explored \
       history depends only on the seed and batch size, never on $(docv)."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let batch_arg =
    let doc =
      "Candidates kept in flight, fixed for the whole campaign. $(b,0) \
       removes the bound entirely: the barrierless runtime keeps \
       submitting until the next sync watermark, so only worker capacity \
       limits overlap, and a guided search's feedback goes stale (a \
       1,200-test guided apache campaign, seed 2718, found 425 failing \
       tests at $(b,0) against 715 at $(b,8))."
    in
    Arg.(value & opt int 32 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let manager_arg =
    let doc =
      "Dispatch tests to the remote node manager at $(docv) (repeatable; \
       start one with $(b,afex serve)). Managers ride the single-domain \
       event loop, one request each in flight or up to $(b,--inflight) in \
       all, so $(b,--jobs) must be 0 or 1 (the two behave the same). A \
       failing manager's tests are re-run locally, so the explored history \
       never depends on remote health."
    in
    Arg.(value & opt_all string [] & info [ "manager" ] ~docv:"HOST:PORT" ~doc)
  in
  let inflight_arg =
    let doc =
      "Keep up to $(docv) tests in flight on a single-domain event loop — \
       the right knob for latency-bound targets ($(b,--latency), slow \
       remote managers), where workers wait instead of compute. Requires \
       $(b,--jobs) 1. The explored history is identical at every $(docv)."
    in
    Arg.(value & opt int 1 & info [ "inflight" ] ~docv:"N" ~doc)
  in
  let latency_arg =
    let doc =
      "Simulate a slow target: each test completes only after a seeded, \
       per-scenario latency drawn from $(docv) — one of fixed:MS, \
       uniform:LO-HI, exp:MEAN, bimodal:FAST,SLOW,SHARE (milliseconds). \
       Deterministic given the session seed, so campaigns replay exactly."
    in
    Arg.(value & opt (some string) None & info [ "latency" ] ~docv:"DIST" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Make the campaign crash-safe: snapshot the full explorer state into \
       $(docv) at a cadence of $(b,--checkpoint-every) reported outcomes and \
       journal every outcome in between, so a killed process continues with \
       $(b,--resume) and produces byte-identical exports."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)
  in
  let checkpoint_every_arg =
    let doc =
      "Snapshot cadence for $(b,--checkpoint), in reported outcomes. A \
       snapshot is written at the first sync watermark (every 512 \
       releases, where the window has drained) at least $(docv) outcomes \
       after the previous one, so values below 512 act as 512. Larger \
       values write fewer snapshots (each costs about the outcomes since \
       the previous one); smaller values, down to 512, shorten the \
       journal a resume replays."
    in
    Arg.(value & opt int 500 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let resume_arg =
    let doc =
      "Continue the campaign checkpointed in $(docv): restore the last \
       snapshot, replay the journal tail, and keep exploring (and \
       checkpointing) from there. Every flag that shapes the search must \
       match the original invocation."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"DIR" ~doc)
  in
  let run target strategy iterations seed feedback rarity rarity_weight
      rarity_cutoff mask top replay_out multi seed_analysis
      csv_out json_out assess jobs batch managers inflight
      latency checkpoint_dir checkpoint_every resume_dir verbosity =
    setup_logging verbosity;
    if mask && not rarity then begin
      prerr_endline "afex: --mask needs --rarity (it pins against the rarity cutoff)";
      exit 2
    end;
    if rarity && strategy <> `Fitness then begin
      prerr_endline "afex: --rarity shapes fitness; use --strategy fitness with it";
      exit 2
    end;
    if rarity_weight < 0.0 then begin
      prerr_endline "afex: --rarity-weight must be non-negative";
      exit 2
    end;
    if rarity_cutoff <= 0.0 || rarity_cutoff >= 1.0 then begin
      prerr_endline "afex: --rarity-cutoff must be strictly between 0 and 1";
      exit 2
    end;
    let specs =
      List.map
        (fun m ->
          match parse_manager m with
          | Ok spec -> spec
          | Error e ->
              prerr_endline e;
              exit 2)
        managers
    in
    if jobs < 0 || (jobs = 0 && specs = []) then begin
      prerr_endline "afex: --jobs must be at least 1 (0 needs --manager)";
      exit 2
    end;
    if batch < 0 then begin
      prerr_endline "afex: --batch must be at least 1 (or 0 for unbounded)";
      exit 2
    end;
    if inflight < 1 then begin
      prerr_endline "afex: --inflight must be at least 1";
      exit 2
    end;
    if inflight > 1 && jobs > 1 then begin
      prerr_endline
        "afex: --inflight multiplexes on a single domain; use --jobs 1 with it";
      exit 2
    end;
    if specs <> [] && jobs > 1 then begin
      prerr_endline
        "afex: --manager rides the single-domain event loop; use --jobs 0 or 1 \
         with it";
      exit 2
    end;
    if checkpoint_dir <> None && resume_dir <> None then begin
      prerr_endline
        "afex: --checkpoint and --resume are exclusive (a resume keeps \
         checkpointing into its own directory)";
      exit 2
    end;
    if checkpoint_every < 1 then begin
      prerr_endline "afex: --checkpoint-every must be at least 1";
      exit 2
    end;
    let latency_model =
      match latency with
      | None -> None
      | Some s -> (
          match Afex_simtarget.Target.latency_dist_of_string s with
          | Ok dist -> Some (Afex_simtarget.Target.latency_model ~seed dist)
          | Error e ->
              prerr_endline ("afex: --latency: " ^ e);
              exit 2)
    in
    (* Campaign identity: every flag that shapes the explored history.
       Checked on --resume so a snapshot cannot silently continue under a
       different configuration. jobs and --checkpoint-every are absent on
       purpose — neither affects the history. *)
    let checkpoint_meta =
      let strategy_name =
        match strategy with
        | `Fitness -> "fitness"
        | `Random -> "random"
        | `Exhaustive -> "exhaustive"
      in
      [
        ("format", "1");
        ("target", target);
        ("strategy", strategy_name);
        ("seed", string_of_int seed);
        ("iterations", string_of_int iterations);
        ("batch", string_of_int batch);
        ("feedback", string_of_bool feedback);
        ("rarity", string_of_bool rarity);
        ( "rarity-weight",
          if rarity then Printf.sprintf "%h" rarity_weight else "-" );
        ( "rarity-cutoff",
          if rarity then Printf.sprintf "%h" rarity_cutoff else "-" );
        ("mask", string_of_bool mask);
        ("multi", string_of_bool multi);
        ("seed-analysis", string_of_bool seed_analysis);
        ("latency", Option.value latency ~default:"-");
        ("inflight", string_of_int inflight);
      ]
    in
    let checkpoint =
      match (checkpoint_dir, resume_dir) with
      | None, None -> None
      | Some dir, None -> (
          match
            Afex_cluster.Checkpoint.start ~every:checkpoint_every ~dir
              checkpoint_meta
          with
          | Ok cp -> Some cp
          | Error e ->
              prerr_endline ("afex: --checkpoint: " ^ e);
              exit 2)
      | None, Some dir -> (
          match
            Afex_cluster.Checkpoint.resume ~every:checkpoint_every ~dir
              checkpoint_meta
          with
          | Ok cp -> Some cp
          | Error e ->
              prerr_endline ("afex: --resume: " ^ e);
              exit 2)
      | Some _, Some _ -> assert false
    in
    let executor, sub, analysis_seeds =
      match parse_replsim_exn target with
      | Some cluster ->
          if assess <> None then begin
            prerr_endline
              "afex: --assess replays faults through the generic callsite \
               codec, which replsim scenarios do not use";
            exit 2
          end;
          let arms = if multi then 2 else 1 in
          let sub =
            if multi then Replfault.multi_space ~arms cluster
            else Replfault.space cluster
          in
          let seeds =
            (* For replsim the "static analysis" is the cluster's observable
               structure: scheduled recovery windows and the fault-free
               leader trace. *)
            if seed_analysis then begin
              let seeds = Replfault.seed_points ~arms cluster in
              Format.printf "seeded with %d churn-schedule-derived scenarios@."
                (List.length seeds);
              seeds
            end
            else []
          in
          (replsim_executor cluster, sub, seeds)
      | None -> (
          match lookup_target target with
          | Error e ->
              prerr_endline e;
              exit 2
          | Ok (t, sub) ->
              let sub =
                if multi then
                  Afex_simtarget.Spaces.multi ~arms:2 ~min_call:1 ~max_call:6
                    ~funcs:Afex_simtarget.Libc.standard19 t
                else sub
              in
              let seeds =
                if seed_analysis then begin
                  let findings = Afex_simtarget.Analyzer.analyze t in
                  let seeds = Afex.Seeding.points_for sub t findings ~max_seeds:50 in
                  Format.printf "seeded with %d analysis-derived injections@."
                    (List.length seeds);
                  seeds
                end
                else []
              in
              let executor =
                if multi then Afex.Executor.of_target_multi t
                else Afex.Executor.of_target t
              in
              (executor, sub, seeds))
    in
    begin
        let config =
          match strategy with
          | `Fitness -> Afex.Config.fitness_guided ~seed ()
          | `Random -> Afex.Config.random_search ~seed ()
          | `Exhaustive -> Afex.Config.exhaustive ~seed ()
        in
        let config = { config with Afex.Config.feedback } in
        let config =
          if rarity then
            Afex.Config.with_rarity ~weight:rarity_weight ~cutoff:rarity_cutoff
              ~mask config
          else config
        in
        let config =
          if analysis_seeds = [] then config
          else { config with Afex.Config.initial_seeds = analysis_seeds }
        in
        let pool_executor =
          match latency_model with
          | None -> Afex_cluster.Pool.Pure executor
          | Some model ->
              Afex_cluster.Pool.Async
                (Afex.Executor.delayed
                   ~delay_ms:(fun scenario ->
                     Afex_simtarget.Target.latency_ms model
                       (Afex_faultspace.Scenario.to_string scenario))
                   executor)
        in
        let pool =
          Afex_cluster.Pool.create ~remotes:specs ~inflight ~jobs pool_executor
        in
        (* A checkpoint write that fails mid-campaign (a full disk, a file
           size limit) ends the run with one line, as a bad --checkpoint
           or --resume does. The directory resumes like one a crash left
           at that write. *)
        let checkpoint_failed m =
          prerr_endline ("afex: checkpoint: " ^ m);
          exit 2
        in
        let (result, stats), remote_stats =
          try
            Fun.protect
              ~finally:(fun () -> Afex_cluster.Pool.shutdown pool)
              (fun () ->
                let session =
                  Afex_cluster.Pool.session ?checkpoint
                    ~batch_size:(if batch = 0 then max_int else batch)
                    ~iterations pool config sub
                in
                (* Before shutdown: a closed connection's dictionary
                   reads 0. *)
                (session, Afex_cluster.Pool.remote_stats pool))
          with
          | Unix.Unix_error (err, fn, arg) when Option.is_some checkpoint ->
              checkpoint_failed
                (String.concat " " (List.filter (( <> ) "") [ fn; arg ])
                ^ ": " ^ Unix.error_message err)
          | (Sys_error m | Failure m) when Option.is_some checkpoint ->
              checkpoint_failed m
        in
        print_string (Afex_report.Session_report.render ~top ~target result);
        if rarity then begin
          (match result.Afex.Session.rare_blocks with
          | Some n ->
              Format.printf
                "rarity: %d/%d blocks still below the %.3f cutoff (weight %g%s)@."
                n result.Afex.Session.total_blocks rarity_cutoff rarity_weight
                (if mask then ", masking on" else "")
          | None -> ());
          let m = result.Afex.Session.mutator in
          Format.printf
            "mutator: %d proposals, %d masked accepts, %d/%d \
             masked/unmasked rejects, %d random fallbacks@."
            m.Afex.Mutator.proposals m.Afex.Mutator.masked
            m.Afex.Mutator.masked_rejects m.Afex.Mutator.rejects
            m.Afex.Mutator.random_fallbacks
        end;
        if inflight > 1 then Format.printf "async: %d in flight@." inflight;
        Format.printf
          "pool: %d jobs, %d executed, %d cache hits, %.0f ms wall (%.0f \
           tests/s; %.0f ms generating, %.0f ms stalled, %.0f ms merging)@."
          jobs stats.Afex_cluster.Pool.executed
          stats.Afex_cluster.Pool.cache_hits stats.Afex_cluster.Pool.wall_ms
          (if stats.Afex_cluster.Pool.wall_ms <= 0.0 then 0.0
           else 1000.0 *. float_of_int result.Afex.Session.iterations
                /. stats.Afex_cluster.Pool.wall_ms)
          stats.Afex_cluster.Pool.gen_ms stats.Afex_cluster.Pool.stall_ms
          stats.Afex_cluster.Pool.merge_ms;
        if remote_stats <> [] then begin
          Format.printf "remote: %d runs over the wire, %d local fallbacks@."
            stats.Afex_cluster.Pool.remote_runs
            stats.Afex_cluster.Pool.remote_fallbacks;
          List.iter
            (fun (name, (r : Afex_cluster.Remote_manager.stats)) ->
              Format.printf
                "  %s: %d requests, %d retries, %d dials, %d manager errors@."
                name r.Afex_cluster.Remote_manager.requests
                r.Afex_cluster.Remote_manager.retries
                r.Afex_cluster.Remote_manager.dials
                r.Afex_cluster.Remote_manager.manager_errors;
              Format.printf
                "    %d frames out / %d in, %d bytes out / %d in, dict %d@."
                r.Afex_cluster.Remote_manager.frames_out
                r.Afex_cluster.Remote_manager.frames_in
                r.Afex_cluster.Remote_manager.bytes_out
                r.Afex_cluster.Remote_manager.bytes_in
                r.Afex_cluster.Remote_manager.dict_size)
            remote_stats
        end;
        (match assess with
        | None -> ()
        | Some k ->
            Format.printf "@.--- impact precision of the top %d faults ---@." k;
            List.iter
              (fun ((case : Afex.Test_case.t), p) ->
                Format.printf "  %a@.    %a@." Afex_injector.Fault.pp
                  case.Afex.Test_case.fault Afex_quality.Precision.pp p)
              (Afex.Assess.top_faults executor
                 ~sensor:(Afex_injector.Sensor.standard ())
                 ~trials:10 ~n:k result));
        let write path contents =
          let oc = open_out path in
          output_string oc contents;
          close_out oc
        in
        (match csv_out with
        | None -> ()
        | Some path ->
            write path (Afex_report.Export.records_to_csv result);
            Format.printf "@.per-test CSV written to %s@." path);
        (match json_out with
        | None -> ()
        | Some path ->
            write path (Afex_report.Export.summary_to_json ~target result);
            Format.printf "session JSON written to %s@." path);
        (match replay_out with
        | None -> ()
        | Some path ->
            let reps = Afex.Session.crash_cluster_representatives result in
            write path (Afex_report.Replay.suite ~target reps);
            Format.printf "@.replay suite for %d clusters written to %s@."
              (List.length reps) path);
        (match checkpoint with
        | None -> ()
        | Some cp ->
            let st = Afex_cluster.Checkpoint.stats cp in
            let path =
              Filename.concat (Afex_cluster.Checkpoint.dir cp) "provenance.json"
            in
            write path
              (Afex_report.Export.provenance_to_json ~target ~seed
                 ~resumed:st.Afex_cluster.Checkpoint.was_resumed
                 ~snapshots:st.Afex_cluster.Checkpoint.snapshots_written
                 ~wal_appends:st.Afex_cluster.Checkpoint.wal_appends
                 ~replayed_records:st.Afex_cluster.Checkpoint.replayed_records ());
            Format.printf
              "checkpoint: %d snapshots, %d journal appends in %d writes%s; \
               provenance in %s@."
              st.Afex_cluster.Checkpoint.snapshots_written
              st.Afex_cluster.Checkpoint.wal_appends
              st.Afex_cluster.Checkpoint.wal_writes
              (if st.Afex_cluster.Checkpoint.was_resumed then
                 Printf.sprintf " (replayed %d journaled outcomes)"
                   st.Afex_cluster.Checkpoint.replayed_records
               else "")
              path;
            Afex_cluster.Checkpoint.close cp)
    end
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Run a fault exploration session against a target")
    Term.(
      const run $ target_arg $ strategy_arg $ iterations_arg $ seed_arg $ feedback_arg
      $ rarity_arg $ rarity_weight_arg $ rarity_cutoff_arg $ mask_arg
      $ top_arg $ replay_arg $ multi_arg $ seed_analysis_arg $ csv_arg $ json_arg
      $ assess_arg $ jobs_arg $ batch_arg $ manager_arg $ inflight_arg $ latency_arg
      $ checkpoint_arg $ checkpoint_every_arg $ resume_arg $ verbose_arg)

(* --- afex serve --- *)

let serve_cmd =
  let port_arg =
    let doc =
      "TCP port to listen on. Port 0 picks an ephemeral port; the actual \
       address is announced on stdout."
    in
    Arg.(value & opt int 7654 & info [ "port"; "p" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Address to bind." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let once_arg =
    let doc = "Exit after the first connection ends (useful in scripts and CI)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let multi_arg =
    let doc =
      "Execute 2-fault compound scenarios (pair with $(b,explore --multi))."
    in
    Arg.(value & flag & info [ "multi" ] ~doc)
  in
  let latency_arg =
    let doc =
      "Serve a slow target: delay each test by a seeded per-scenario latency \
       drawn from $(docv) (same syntax as $(b,explore --latency)). Pair with \
       $(b,explore --inflight) to exercise request pipelining."
    in
    Arg.(value & opt (some string) None & info [ "latency" ] ~docv:"DIST" ~doc)
  in
  let rarity_cutoff_arg =
    let doc =
      "Accumulate a hit-count histogram over every block the served \
       scenarios cover and report, when the server exits, how many blocks \
       stayed below the $(docv) rarity cutoff — the manager-side view of \
       what an $(b,explore --rarity) client is being steered towards."
    in
    Arg.(value & opt (some float) None & info [ "rarity-cutoff" ] ~docv:"FRAC" ~doc)
  in
  let chaos_arg =
    let doc =
      "Mangle reply frames with probability $(docv) per corruption kind \
       (drop, duplicate, bit-flip; half that for truncation and leading \
       garbage) — transport fault injection for exercising the client's \
       corruption detection and local fallback."
    in
    Arg.(value & opt (some float) None & info [ "chaos" ] ~docv:"FRAC" ~doc)
  in
  let chaos_seed_arg =
    let doc = "Seed for the per-connection chaos RNG streams." in
    Arg.(value & opt int 0 & info [ "chaos-seed" ] ~docv:"N" ~doc)
  in
  let run target host port once multi latency rarity_cutoff chaos chaos_seed
      verbosity =
    setup_logging verbosity;
    let executor =
      match parse_replsim_exn target with
      | Some cluster ->
          (* replsim decodes any number of arms from one scenario, so the
             same executor serves --multi and single-fault clients. *)
          replsim_executor cluster
      | None -> (
          match lookup_target target with
          | Error e ->
              prerr_endline e;
              exit 2
          | Ok (t, _) ->
              if multi then Afex.Executor.of_target_multi t
              else Afex.Executor.of_target t)
    in
    (
        let executor =
          match latency with
          | None -> executor
          | Some s -> (
              match Afex_simtarget.Target.latency_dist_of_string s with
              | Error e ->
                  prerr_endline ("afex: --latency: " ^ e);
                  exit 2
              | Ok dist ->
                  let model = Afex_simtarget.Target.latency_model dist in
                  Afex.Executor.sync_of_async
                    (Afex.Executor.delayed
                       ~delay_ms:(fun scenario ->
                         Afex_simtarget.Target.latency_ms model
                           (Afex_faultspace.Scenario.to_string scenario))
                       executor))
        in
        (* The rarity histogram wraps the outermost executor, so it counts
           exactly what goes over the wire (latency wrapping included). *)
        let hist =
          match rarity_cutoff with
          | None -> None
          | Some cutoff ->
              if cutoff <= 0.0 || cutoff >= 1.0 then begin
                prerr_endline
                  "afex: --rarity-cutoff must be strictly between 0 and 1";
                exit 2
              end;
              Some
                (Afex.Rarity.create ~blocks:executor.Afex.Executor.total_blocks,
                 cutoff)
        in
        let executor =
          match hist with
          | None -> executor
          | Some (h, _) ->
              {
                executor with
                Afex.Executor.run_scenario =
                  (fun scenario ->
                    let outcome = executor.Afex.Executor.run_scenario scenario in
                    Afex.Rarity.observe h outcome.Outcome.coverage;
                    outcome);
              }
        in
        let report_rarity () =
          match hist with
          | None -> ()
          | Some (h, cutoff) ->
              Format.printf
                "rarity: served %d tests; %d/%d blocks below the %.3f cutoff@."
                (Afex.Rarity.tests h)
                (Afex.Rarity.rare_count h ~cutoff)
                (Afex.Rarity.blocks h) cutoff
        in
        let chaos_to_client =
          match chaos with
          | None -> None
          | Some p ->
              if p < 0.0 || p > 1.0 then begin
                prerr_endline "afex: --chaos must be between 0 and 1";
                exit 2
              end;
              Some
                {
                  Afex_cluster.Transport.drop = p;
                  duplicate = p;
                  truncate = p /. 2.0;
                  bitflip = p;
                  garbage = p /. 2.0;
                }
        in
        match
          Afex_cluster.Remote_manager.serve_tcp ~host ?chaos_to_client
            ~chaos_seed ~port ~once executor
        with
        | Ok () -> report_rarity ()
        | Error e ->
            report_rarity ();
            prerr_endline
              ("afex: serve: " ^ Afex_cluster.Remote_manager.string_of_error e);
            exit 1)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a node manager serving fault scenarios over TCP (the AFEX wire \
          protocol); point $(b,explore --manager) at it")
    Term.(
      const run $ target_arg $ host_arg $ port_arg $ once_arg $ multi_arg
      $ latency_arg $ rarity_cutoff_arg $ chaos_arg $ chaos_seed_arg
      $ verbose_arg)

(* --- afex inject --- *)

let inject_cmd =
  let test_arg =
    Arg.(
      required & opt (some int) None & info [ "test" ] ~docv:"ID" ~doc:"Test id to run.")
  in
  let func_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "function" ] ~docv:"FN" ~doc:"libc function whose call fails.")
  in
  let call_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "call" ] ~docv:"N" ~doc:"Which call to fail (1-based; 0 = no injection).")
  in
  let errno_arg =
    Arg.(
      value & opt (some string) None & info [ "errno" ] ~docv:"E" ~doc:"errno to simulate.")
  in
  let retval_arg =
    Arg.(
      value & opt (some int) None & info [ "retval" ] ~docv:"R" ~doc:"Return value to inject.")
  in
  let print_status_arg =
    Arg.(value & flag & info [ "print-status" ] ~doc:"Print only the outcome status.")
  in
  let expect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "expect" ] ~docv:"STATUS"
          ~doc:"Exit non-zero unless the outcome status equals $(docv).")
  in
  let run target test_id func call errno retval print_status expect =
    let fault = Fault.make ~test_id ~func ~call_number:call ?errno ?retval () in
    let outcome =
      match parse_replsim_exn target with
      | Some cluster -> (
          (* The generic flags carry the replsim coordinates through the
             Fault.t embedding: --function repl_<kind>, --test replica,
             --call round, --retval peer. *)
          match Replfault.rfault_of_fault fault with
          | Error m ->
              prerr_endline ("afex: " ^ m);
              exit 2
          | Ok rf ->
              Replfault.run_scenario cluster (Replfault.scenario_of_faults [ rf ]))
      | None -> (
          match lookup_target target with
          | Error e ->
              prerr_endline e;
              exit 2
          | Ok (t, _) -> (
              try Engine.run t fault
              with Invalid_argument m ->
                prerr_endline m;
                exit 2))
    in
    begin
        let status = Outcome.status_to_string outcome.Outcome.status in
        if print_status then print_endline status
        else begin
          Format.printf "%a@." Outcome.pp outcome;
          (match outcome.Outcome.injection_stack with
          | Some stack ->
              Format.printf "injection stack:@.";
              List.iter (fun f -> Format.printf "  %s@." f) stack
          | None -> Format.printf "fault did not trigger@.");
          match outcome.Outcome.crash_stack with
          | Some stack ->
              Format.printf "crash stack:@.";
              List.iter (fun f -> Format.printf "  %s@." f) stack
          | None -> ()
        end;
        match expect with
        | Some expected when not (String.equal expected status) ->
            Format.eprintf "expected %s, observed %s@." expected status;
            exit 1
        | Some _ | None -> ()
    end
  in
  Cmd.v
    (Cmd.info "inject" ~doc:"Replay a single fault injection")
    Term.(
      const run $ target_arg $ test_arg $ func_arg $ call_arg $ errno_arg $ retval_arg
      $ print_status_arg $ expect_arg)

(* --- afex analyze --- *)

let analyze_cmd =
  let recall_arg =
    Arg.(value & opt float 0.7 & info [ "recall" ] ~docv:"P" ~doc:"Analyzer recall in [0,1].")
  in
  let precision_arg =
    Arg.(
      value & opt float 0.6 & info [ "precision" ] ~docv:"P" ~doc:"Analyzer precision in [0,1].")
  in
  let run target recall precision seed =
    if parse_replsim_exn target <> None then begin
      prerr_endline
        "afex: analyze needs a callsite-instrumented target; replsim's fault \
         axes are round/replica/kind/peer";
      exit 2
    end;
    match lookup_target target with
    | Error e ->
        prerr_endline e;
        exit 2
    | Ok (t, _) ->
        let findings = Afex_simtarget.Analyzer.analyze ~recall ~precision ~seed t in
        Format.printf "%d suspicious callsites:@." (List.length findings);
        List.iter
          (fun (f : Afex_simtarget.Analyzer.finding) ->
            Format.printf "  %-28s %-12s %s@." f.Afex_simtarget.Analyzer.location
              f.Afex_simtarget.Analyzer.func f.Afex_simtarget.Analyzer.reason)
          findings
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the (deliberately imperfect) static callsite analyzer on a target")
    Term.(const run $ target_arg $ recall_arg $ precision_arg $ seed_arg)

(* --- afex parse --- *)

let parse_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Fault space description file to validate.")
  in
  let run file =
    let ic = open_in file in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    match Afex_faultspace.Fsdl.space_of_string contents with
    | Ok space ->
        Format.printf "valid description: %d subspaces, %d faults total@."
          (List.length (Afex_faultspace.Space.subspaces space))
          (Afex_faultspace.Space.cardinality space)
    | Error e ->
        prerr_endline e;
        exit 1
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Validate a fault space description file")
    Term.(const run $ file_arg)

let () =
  let info =
    Cmd.info "afex" ~version:"1.0.0"
      ~doc:"Fast black-box testing of system recovery code (EuroSys 2012 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            targets_cmd;
            describe_cmd;
            explore_cmd;
            serve_cmd;
            inject_cmd;
            analyze_cmd;
            parse_cmd;
          ]))
