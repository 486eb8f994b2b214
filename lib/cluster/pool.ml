module Bitset = Afex_stats.Bitset
module Point = Afex_faultspace.Point
module Outcome = Afex_injector.Outcome
module Test_case = Afex.Test_case

type executor = Pure of Afex.Executor.t | Async of Afex.Executor.async

let total_blocks = function
  | Pure e -> e.Afex.Executor.total_blocks
  | Async a -> a.Afex.Executor.async_total_blocks

(* The explorer only uses the executor for sizing its coverage bitset and
   for log lines; all actual execution goes through the pool. *)
let explorer_executor = function
  | Pure e -> e
  | Async a ->
      Afex.Executor.of_scenario_fn ~total_blocks:a.Afex.Executor.async_total_blocks
        ~description:a.Afex.Executor.async_description (fun _ ->
          invalid_arg "Pool: an async executor only runs on the pool")

type t = {
  jobs : int;
  executor : executor;
  runtime : Runtime.t;
}

let create ?(remotes = []) ?(inflight = 1) ?request_timeout_ms ~jobs executor =
  if jobs < 0 then invalid_arg "Pool.create: jobs must be non-negative";
  if inflight < 1 then invalid_arg "Pool.create: inflight must be positive";
  let event_loop exec =
    (* Event-loop concurrency is orthogonal to Domain parallelism; mixing
       them would make the schedule depend on both, for no benefit — an
       async target or a remote manager waits, it doesn't compute. *)
    if jobs > 1 then
      invalid_arg
        "Pool.create: remotes, inflight > 1 and Async executors multiplex \
         on a single domain; use jobs <= 1";
    (* At least one request per manager in flight, as many as [inflight]
       allows. *)
    Runtime.event_loop
      (Async_executor.create ~remotes ?request_timeout_ms
         ~inflight:(max inflight (List.length remotes)) exec)
  in
  let runtime =
    match executor with
    | Pure e when inflight = 1 && remotes = [] ->
        if jobs = 0 then
          invalid_arg "Pool.create: need at least one worker (jobs or remotes)"
        else if jobs = 1 then Runtime.inline e.Afex.Executor.run_scenario
        else Runtime.domains ~jobs e.Afex.Executor.run_scenario
    | Pure e -> event_loop (Afex.Executor.async_of_sync e)
    | Async a -> event_loop a
  in
  { jobs; executor; runtime }

let jobs t = t.jobs

let async_stats t = Option.map Async_executor.stats (Runtime.async t.runtime)

let remote_stats t =
  match Runtime.async t.runtime with
  | Some a -> Async_executor.remote_stats a
  | None -> []

(* Cumulative (remote runs, remote fallbacks); only the event loop
   talks to managers. *)
let remote_counts t =
  match async_stats t with
  | Some s -> (s.Async_executor.remote_runs, s.Async_executor.remote_fallbacks)
  | None -> (0, 0)

let shutdown t = Runtime.shutdown t.runtime

(* ------------------------------------------------------------------ *)
(* The session loop                                                    *)
(* ------------------------------------------------------------------ *)

type stats = {
  executed : int;
  cache_hits : int;
  remote_runs : int;
  remote_fallbacks : int;
  gen_ms : float;
  stall_ms : float;
  merge_ms : float;
  wall_ms : float;
}

(* What the memo cache keeps of a point: [Running] while its fresh run
   is in flight, so a later identical candidate waits on it as a [Dup]
   instead of occupying a worker; then the record [Explorer.report]
   returned for that run, which the explorer keeps anyway, and its
   coverage, one copy per distinct set of the session. The record holds
   every other field of the outcome. *)
type memo = Running | Ran of { case : Test_case.t; coverage : Bitset.t }

(* The first run's outcome, field for field. *)
let outcome_of_memo (c : Test_case.t) coverage =
  {
    Outcome.fault = c.Test_case.fault;
    status = c.Test_case.status;
    triggered = c.Test_case.triggered;
    coverage;
    injection_stack = c.Test_case.injection_stack;
    crash_stack = c.Test_case.crash_stack;
    duration_ms = c.Test_case.duration_ms;
  }

module Coverage_sets = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

(* How a submission is satisfied: run by the runtime, replayed from the
   journal (not re-journaled), or served by the memo cache (a hit, or a
   duplicate of a point in flight). *)
type source = Fresh | Replayed | Cached

(* Where a submission's outcome stands. A [Dup] resolves against its
   point's cache entry at release: its original is an earlier
   submission, so it has released (and filled the entry) by then. *)
type slot = Waiting | Done of (Outcome.t, exn) result | Dup

(* One submission in the window, from submission to release. *)
type entry = {
  proposal : Afex.Mutator.proposal;
  source : source;
  mutable slot : slot;
}

let session ?transform ?stop ?checkpoint ?(batch_size = 32) ?(memoize = true)
    ?(sync_every = 512) ~iterations t config sub =
  if batch_size < 1 then invalid_arg "Pool.session: batch_size must be positive";
  if sync_every < 1 then invalid_arg "Pool.session: sync_every must be positive";
  (match (stop, checkpoint) with
  | Some _, Some _ ->
      invalid_arg
        "Pool.session: a checkpoint cannot capture a stop predicate; bound a \
         checkpointed campaign with iterations"
  | (Some _ | None), _ -> ());
  let started = Unix.gettimeofday () in
  let resume_snap = Option.bind checkpoint Checkpoint.loaded_snapshot in
  let explorer =
    match resume_snap with
    | None ->
        Afex.Explorer.create ?transform config sub (explorer_executor t.executor)
    | Some snap -> (
        match
          Afex.Explorer.restore ?transform config sub
            (explorer_executor t.executor)
            snap.Checkpoint.Snapshot.explorer
        with
        | Ok e -> e
        | Error m -> failwith ("Pool.session: cannot resume: " ^ m))
  in
  let write_snapshot () =
    match checkpoint with
    | None -> ()
    | Some cp -> Checkpoint.write_snapshot cp explorer
  in
  (* A fresh checkpointed campaign writes its base snapshot before any
     work, so a crash before the first cadence snapshot still resumes
     from iteration zero instead of refusing. *)
  (match checkpoint with
  | Some cp when not (Checkpoint.resumed cp) -> write_snapshot ()
  | Some _ | None -> ());
  (* The memo cache, keyed by the candidate's point: a session explores
     one subspace, so a point names one scenario. *)
  let cache : memo Point.Tbl.t = Point.Tbl.create 256 in
  let coverage_sets = Coverage_sets.create 256 in
  let share coverage =
    match Coverage_sets.find_opt coverage_sets coverage with
    | Some c -> c
    | None ->
        Coverage_sets.add coverage_sets coverage coverage;
        coverage
  in
  let executed = ref 0 and cache_hits = ref 0 in
  let remote_runs0, remote_fallbacks0 = remote_counts t in
  (* Stop-target accounting, as in Session.run: distinct points only. *)
  let matched = Point.Tbl.create 16 and stop_iteration = ref None in
  let target_met () =
    match stop with
    | Some s -> Point.Tbl.length matched >= s.Afex.Session.count
    | None -> false
  in
  (* The deterministic sliding-window schedule. [submitted] and
     [released] are absolute iteration counts; the driver submits while
     the window has room and otherwise releases the head of line, so the
     interleaving of Explorer.next and Explorer.report — and with it the
     whole explored history — is a pure function of (seed, [batch_size],
     [sync_every], iterations), never of completion timing, [jobs] or
     [inflight]. *)
  let base = Afex.Explorer.iterations explorer in
  let submitted = ref base and released = ref base in
  let exhausted = ref false in
  (* The window: every submission not yet released, by sequence
     number. A queued task's entry is filled in place when its
     completion arrives. *)
  let window : (int, entry) Hashtbl.t = Hashtbl.create 64 in
  (* Sync watermarks: every [sync_every] releases, the schedule refuses
     to submit past the boundary until everything before it has
     released, so the window drains to quiescence. The drain is part of
     the schedule itself — it happens whether or not a checkpoint is
     armed — so snapshots (which need quiescence: Explorer snapshots
     refuse with candidates in flight) never perturb the explored
     history relative to an uncheckpointed run. *)
  let next_sync = ref (((base / sync_every) + 1) * sync_every) in
  (* Where the explorer thread's time goes: generating candidates,
     blocked on the head of line, and merging outcomes. Measured only;
     nothing in the schedule reads them. *)
  let gen_acc = ref 0.0 and stall_acc = ref 0.0 and merge_acc = ref 0.0 in
  let replay_pending () =
    match checkpoint with Some cp -> Checkpoint.replay_pending cp | None -> false
  in
  let can_submit () =
    replay_pending ()
    || (not !exhausted)
       && !submitted < iterations
       && not (target_met ())
  in
  let add seq proposal source slot =
    Hashtbl.add window seq { proposal; source; slot }
  in
  (* One submission: consume a journaled outcome if any is queued for
     replay, otherwise generate a fresh candidate and decide — in
     submission order, on the explorer thread — how it is satisfied. *)
  let submit_one () =
    let t0 = Unix.gettimeofday () in
    (match
       match checkpoint with Some cp -> Checkpoint.next_replay cp | None -> None
     with
    | Some (seq, journaled, report) -> (
        (* The explorer is deterministic, so it must regenerate exactly
           the candidate the journal recorded; a mismatch means the
           checkpoint belongs to a different campaign (and slipped past
           the metadata check) or the journal is corrupt. *)
        match Afex.Explorer.next explorer with
        | None ->
            failwith "Pool: journal replays beyond the explorer's candidates"
        | Some p ->
            let abs = !submitted + 1 in
            if seq <> abs then
              failwith
                (Printf.sprintf
                   "Pool: journal replays iteration %d where %d was expected"
                   seq abs);
            let point = p.Afex.Mutator.point in
            if not (Point.equal journaled point) then
              failwith
                (Printf.sprintf
                   "Pool: journaled outcome %d is for point %s, but the \
                    explorer regenerated %s"
                   seq (Point.to_string journaled) (Point.to_string point));
            let outcome =
              match
                Message.outcome_of_report
                  ~total_blocks:(total_blocks t.executor) report
              with
              | Ok o -> o
              | Error m ->
                  failwith ("Pool: journaled outcome does not decode: " ^ m)
            in
            add abs p Replayed (Done (Ok outcome));
            submitted := abs)
    | None -> (
        match Afex.Explorer.next explorer with
        | None -> exhausted := true
        | Some p ->
            let abs = !submitted + 1 in
            let point = p.Afex.Mutator.point in
            let scenario = Afex.Explorer.scenario_for explorer p in
            let memo = if memoize then Point.Tbl.find_opt cache point else None in
            (match memo with
            | Some (Ran { case; coverage }) ->
                incr cache_hits;
                add abs p Cached (Done (Ok (outcome_of_memo case coverage)))
            | Some Running ->
                incr cache_hits;
                add abs p Cached Dup
            | None ->
                if memoize then Point.Tbl.add cache point Running;
                (* The runtime runs it on the spot, or answers through
                   [Runtime.poll]. *)
                add abs p Fresh
                  (match Runtime.submit t.runtime ~seq:abs scenario with
                  | Some result -> Done result
                  | None -> Waiting));
            submitted := abs));
    gen_acc := !gen_acc +. (1000.0 *. (Unix.gettimeofday () -. t0))
  in
  (* Release exactly the next submission, blocking on the runtime while
     it is outstanding (completions for later submissions fill their
     entries as they arrive). A completion must match a waiting entry. *)
  let absorb completions =
    List.iter
      (fun (seq, result) ->
        match Hashtbl.find_opt window seq with
        | Some ({ slot = Waiting; _ } as e) -> e.slot <- Done result
        | Some { slot = Done _ | Dup; _ } | None ->
            invalid_arg
              (Printf.sprintf "Pool: completion %d matches no waiting submission"
                 seq))
      completions
  in
  let waiting e = match e.slot with Waiting -> true | Done _ | Dup -> false in
  (* Group commit: the release of an outcome the journal lacks also
     stages every later outcome of the window already known and due for
     the journal, up to the first that is waiting, a duplicate, an error
     or a replay, so one write carries them all. Each so staged skips
     the journal at its own release. The journal thus stays contiguous
     and runs at most one window ahead of the explorer, and a sync
     watermark, where the window is empty, finds every journaled outcome
     absorbed. Returns the last sequence number staged. *)
  let journaled = ref base in
  let rec stage_known cp seq =
    match Hashtbl.find window seq with
    | { proposal; source = Fresh | Cached; slot = Done (Ok o) } ->
        Checkpoint.stage cp ~point:proposal.Afex.Mutator.point ~seq o;
        stage_known cp (seq + 1)
    | { source = Replayed; _ } | { slot = Waiting | Dup | Done (Error _); _ } ->
        seq - 1
    | exception Not_found -> seq - 1
  in
  let release_one () =
    let seq = !released + 1 in
    let e = Hashtbl.find window seq in
    if waiting e then begin
      absorb (Runtime.poll t.runtime ~block:false);
      if waiting e then begin
        let t0 = Unix.gettimeofday () in
        while waiting e do
          match Runtime.poll t.runtime ~block:true with
          | [] -> failwith "Pool: a submitted task produced no completion"
          | completions -> absorb completions
        done;
        stall_acc := !stall_acc +. (1000.0 *. (Unix.gettimeofday () -. t0))
      end
    end;
    Hashtbl.remove window seq;
    let t0 = Unix.gettimeofday () in
    let point = e.proposal.Afex.Mutator.point in
    let outcome =
      match e.slot with
      | Done (Ok o) -> o
      | Done (Error exn) -> raise exn
      | Dup -> (
          match Point.Tbl.find_opt cache point with
          | Some (Ran { case; coverage }) -> outcome_of_memo case coverage
          | Some Running | None ->
              raise (Invalid_argument "Pool: duplicate of a failed scenario"))
      | Waiting -> assert false
    in
    (match e.source with Fresh -> incr executed | Replayed | Cached -> ());
    (* Journal the outcome before the explorer absorbs it: a crash
       between the two re-applies it from the journal on resume, which
       is idempotent — the reverse order would lose it. Replayed
       outcomes are not journaled again. *)
    (match (checkpoint, e.source) with
    | Some cp, (Fresh | Cached) when seq > !journaled ->
        Checkpoint.stage cp ~point ~seq outcome;
        journaled := stage_known cp (seq + 1);
        Checkpoint.flush cp
    | Some _, (Fresh | Cached | Replayed) | None, _ -> ());
    let case = Afex.Explorer.report explorer e.proposal outcome in
    (match e.source with
    | (Fresh | Replayed) when memoize ->
        Point.Tbl.replace cache point
          (Ran { case; coverage = share outcome.Outcome.coverage })
    | Fresh | Replayed | Cached -> ());
    (match stop with
    | Some s when s.Afex.Session.matches case ->
        Point.Tbl.replace matched case.Afex.Test_case.point ();
        if Point.Tbl.length matched >= s.Afex.Session.count && !stop_iteration = None
        then stop_iteration := Some (Afex.Explorer.iterations explorer)
    | Some _ | None -> ());
    merge_acc := !merge_acc +. (1000.0 *. (Unix.gettimeofday () -. t0));
    released := !released + 1
  in
  let rec drive () =
    if !released >= !next_sync then begin
      (* Quiescent sync watermark: submissions were capped at the
         boundary, so everything before it has released. Write the
         cadence snapshot if one is due. *)
      (match checkpoint with
      | Some cp
        when Checkpoint.due cp ~iterations:(Afex.Explorer.iterations explorer)
        ->
          write_snapshot ()
      | Some _ | None -> ());
      next_sync := !next_sync + sync_every;
      drive ()
    end
    else if
      can_submit ()
      && !submitted - !released < batch_size
      && !submitted < !next_sync
    then begin
      submit_one ();
      drive ()
    end
    else if !released < !submitted then begin
      release_one ();
      drive ()
    end
    else if can_submit () then begin
      (* Submission was refused with nothing pending: the sync branch
         above fires first when the boundary is the reason, so only a
         zero-width window could land here — kept impossible by the
         positive [batch_size] check above. *)
      assert false
    end
  in
  drive ();
  (* Final snapshot: the completed campaign is itself a resumable (and
     re-resumable) state, and the journal is left empty. *)
  (match checkpoint with Some _ -> write_snapshot () | None -> ());
  let result =
    Afex.Session.summarize explorer
      ~total_blocks:(total_blocks t.executor)
      ~stopped_early:(target_met ()) ~stop_iteration:!stop_iteration
  in
  let remote_runs, remote_fallbacks = remote_counts t in
  ( result,
    {
      executed = !executed;
      cache_hits = !cache_hits;
      remote_runs = remote_runs - remote_runs0;
      remote_fallbacks = remote_fallbacks - remote_fallbacks0;
      gen_ms = !gen_acc;
      stall_ms = !stall_acc;
      merge_ms = !merge_acc;
      wall_ms = 1000.0 *. (Unix.gettimeofday () -. started);
    } )

let run ?transform ?stop ?checkpoint ?batch_size ?memoize ?sync_every
    ?remotes ?inflight ?request_timeout_ms ~jobs ~iterations config sub
    executor =
  let t = create ?remotes ?inflight ?request_timeout_ms ~jobs executor in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      session ?transform ?stop ?checkpoint ?batch_size ?memoize ?sync_every
        ~iterations t config sub)
