module Rng = Afex_stats.Rng
module Bitset = Afex_stats.Bitset
module Subspace = Afex_faultspace.Subspace
module Point = Afex_faultspace.Point
module Outcome = Afex_injector.Outcome
module Sensor = Afex_injector.Sensor
module Relevance = Afex_quality.Relevance
module Feedback = Afex_quality.Feedback
module Trace_intern = Afex_quality.Trace_intern
module Index = Afex_quality.Index

(* Progress metrics go to a log so a long exploration can be followed
   live (§6.4, step 7). *)
let log_src = Logs.Src.create "afex.explorer" ~doc:"AFEX exploration progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* A record of floats only is stored flat, so advancing the clock boxes
   nothing. *)
type clock = { mutable simulated_ms : float }

type t = {
  config : Config.t;
  sub : Subspace.t;
  executor : Executor.t;
  transform : Point.t -> Point.t;
  rng : Rng.t;
  queue : Pqueue.t;
  history : History.t;
  sensitivity : Sensitivity.t;
  pending : unit Point.Tbl.t;
  intern : Trace_intern.t;  (** shared by feedback and both indexes *)
  feedback : Feedback.t;
  failure_index : Index.t;
      (** injection stacks of triggered failing tests, clustered online *)
  crash_index : Index.t;  (** crash stacks, clustered online *)
  covered : Bitset.t;
  rarity : Rarity.t option;  (** global hit-count histogram, when enabled *)
  rare_block : (int, int) Hashtbl.t;
      (** birth -> rarest block that test covered (at its report time),
          for queued tests only: parents are drawn from the queue, and
          the mutator checks the block's current hit count to decide
          whether to mask mutations of that parent *)
  mutator_stats : Mutator.stats;
  kernels : Mutator.kernels;  (** per-axis Gaussian tables of the mutator *)
  stats_arg : Mutator.stats option;
  mask : (Test_case.t -> bool array option) option;
  pending_mem : Point.t -> bool;
      (** [Mutator.next]'s [?stats], [?mask] and [is_pending], built once
          so that a call allocates none of them *)
  mutable seeds : Point.t list;  (** analysis-provided seeds, consumed first *)
  mutable cursor : Point.t Seq.t;  (** exhaustive strategy only *)
  mutable cursor_consumed : int;  (** points taken off [cursor] so far *)
  mutable issued : int;
  mutable iterations : int;
  mutable records : Test_case.t list;  (** newest first *)
  mutable failed : int;
  mutable crashed : int;
  mutable hung : int;
  mutable triggered : int;
  clock : clock;
}

(* Only the fitness-guided strategy mutates, and kernels are built on
   first use, so the other strategies never build one. *)
let kernels_for config sub =
  match config.Config.strategy with
  | Config.Fitness_guided params -> Mutator.kernels params sub
  | Config.Random_search | Config.Exhaustive -> Mutator.kernels Mutator.default_params sub

(* FairFuzz masking: a parent is rare-reaching while the rarest block it
   covered is still below the cutoff against the *current* histogram (a
   block everyone has since piled into stops justifying pins). The pin set
   comes from the live sensitivity profile: axes paying off above the
   uniform share are what established the position. Built once per
   explorer; the closure reads the live tables when it is called. *)
let mask_for config rarity rare_block sensitivity =
  match (rarity, config.Config.rarity) with
  | Some hist, Some rc when rc.Config.mask ->
      Some
        (fun (parent : Test_case.t) ->
          match Hashtbl.find_opt rare_block parent.Test_case.birth with
          | Some b when Rarity.is_rare hist ~cutoff:rc.Config.cutoff b ->
              let m = Sensitivity.mask sensitivity in
              (* A mask must pin something and leave something free to be
                 worth applying; early sessions (flat sensitivity) mutate
                 unmasked. *)
              if Array.exists Fun.id m && Array.exists not m then Some m
              else None
          | _ -> None)
  | _ -> None

let create ?(transform = fun p -> p) config sub executor =
  let intern = Trace_intern.create () in
  let sensitivity =
    Sensitivity.create ~window:config.Config.sensitivity_window
      ~dims:(Subspace.dim sub) ()
  in
  let pending = Point.Tbl.create 64 in
  let rarity =
    Option.map
      (fun (_ : Config.rarity) ->
        Rarity.create ~blocks:executor.Executor.total_blocks)
      config.Config.rarity
  in
  let rare_block = Hashtbl.create 64 in
  let mutator_stats = Mutator.create_stats () in
  {
    config;
    sub;
    executor;
    transform;
    rng = Rng.create config.Config.seed;
    queue = Pqueue.create ~capacity:config.Config.queue_capacity;
    history = History.create ();
    sensitivity;
    pending;
    (* One intern table for the whole session: redundancy feedback and
       both cluster indexes tokenize each stack frame exactly once. *)
    intern;
    feedback = Feedback.create ~intern ();
    failure_index = Index.create ~intern ();
    crash_index = Index.create ~intern ();
    covered = Bitset.create executor.Executor.total_blocks;
    rarity;
    rare_block;
    mutator_stats;
    kernels = kernels_for config sub;
    stats_arg = Some mutator_stats;
    mask = mask_for config rarity rare_block sensitivity;
    pending_mem = Point.Tbl.mem pending;
    seeds = config.Config.initial_seeds;
    cursor = Subspace.enumerate sub;
    cursor_consumed = 0;
    issued = 0;
    iterations = 0;
    records = [];
    failed = 0;
    crashed = 0;
    hung = 0;
    triggered = 0;
    clock = { simulated_ms = 0.0 };
  }

let is_pending t p = Point.Tbl.mem t.pending p
let add_pending t p = Point.Tbl.replace t.pending p ()
let remove_pending t p = Point.Tbl.remove t.pending p

(* Pop the next usable analysis seed: in-space, not yet executed. *)
let rec next_seed t =
  match t.seeds with
  | [] -> None
  | p :: rest ->
      t.seeds <- rest;
      if Subspace.mem t.sub p && (not (History.mem t.history p)) && not (is_pending t p)
      then Some p
      else next_seed t

(* Draws [random_novel] may reject before it accepts a repeat. *)
let novel_attempts = 201

let random_novel t =
  if Subspace.hole_free t.sub && History.size t.history >= Subspace.cardinality t.sub
  then begin
    (* History holds only points of the subspace, so it now holds all of
       them: every draw the loop below could make would be rejected.
       Skipping those draws moves the RNG exactly as they would. *)
    Subspace.skip_random_points t.rng t.sub novel_attempts;
    Subspace.random_point t.rng t.sub
  end
  else begin
    (* Bounded search for an unexecuted point; beyond the budget we accept
       a repeat rather than spin (the space may be nearly exhausted). *)
    let rec draw k =
      let p = Subspace.random_point t.rng t.sub in
      if k >= novel_attempts then p
      else if History.mem t.history p || is_pending t p then draw (k + 1)
      else p
    in
    draw 0
  end

let next t =
  let proposal =
    match t.config.Config.strategy with
    | Config.Random_search ->
        (* Uniform sampling with replacement, as in the paper's baseline. *)
        Some { Mutator.point = Subspace.random_point t.rng t.sub; mutated_axis = None }
    | Config.Exhaustive -> (
        match t.cursor () with
        | Seq.Nil -> None
        | Seq.Cons (p, rest) ->
            t.cursor <- rest;
            t.cursor_consumed <- t.cursor_consumed + 1;
            Some { Mutator.point = p; mutated_axis = None })
    | Config.Fitness_guided params -> (
        (* Analysis-provided seeds run before anything else (§4). *)
        match next_seed t with
        | Some point -> Some { Mutator.point; mutated_axis = None }
        | None ->
            if t.issued < t.config.Config.initial_batch || Pqueue.is_empty t.queue
            then Some { Mutator.point = random_novel t; mutated_axis = None }
            else
              Some
                (Mutator.next ?stats:t.stats_arg ?mask:t.mask ~kernels:t.kernels
                   params t.rng t.sub t.sensitivity ~queue:t.queue
                   ~history:t.history ~is_pending:t.pending_mem))
  in
  (match proposal with
  | Some p ->
      t.issued <- t.issued + 1;
      (match t.config.Config.strategy with
      | Config.Random_search -> ()
      | Config.Exhaustive | Config.Fitness_guided _ -> add_pending t p.Mutator.point)
  | None -> ());
  proposal

let scenario_for t (proposal : Mutator.proposal) =
  Subspace.values t.sub (t.transform proposal.Mutator.point)

(* Which redundancy index a record feeds, and with what trace: its crash
   stack goes to the crash index, and a failed, triggered test's
   injection stack ([] when none was captured) to the failure index, in
   that order. [report] observes through it and [restore] replays
   through it, so the two cannot disagree. *)
let feed_indexes feed ~crash ~failure (c : Test_case.t) =
  (match c.Test_case.crash_stack with
  | Some stack -> feed crash stack
  | None -> ());
  if Test_case.failed c && c.Test_case.triggered then
    feed failure
      (match c.Test_case.injection_stack with Some s -> s | None -> [])

(* Tests that left the queue leave the rare-block map with it. *)
let rec forget rare_block = function
  | [] -> ()
  | (c : Test_case.t) :: rest ->
      Hashtbl.remove rare_block c.Test_case.birth;
      forget rare_block rest

let report t (proposal : Mutator.proposal) outcome =
  let point = proposal.Mutator.point in
  remove_pending t point;
  History.add t.history point;
  t.iterations <- t.iterations + 1;
  (* Impact: newly covered blocks relative to the whole session. *)
  let new_blocks = Bitset.diff_count outcome.Outcome.coverage t.covered in
  Bitset.union_into ~dst:t.covered outcome.Outcome.coverage;
  let impact = t.config.Config.sensor.Sensor.score { Sensor.outcome; new_blocks } in
  (* Rarity bonus against the histogram *before* this outcome is folded
     in (the same convention as [new_blocks] above): a weighted reward for
     reaching the session's rarely-hit blocks. *)
  let bonus =
    match (t.rarity, t.config.Config.rarity) with
    | Some hist, Some rc ->
        Some (rc.Config.weight *. Rarity.bonus hist outcome.Outcome.coverage)
    | _ -> None
  in
  let fitness =
    let f =
      match t.config.Config.relevance with
      | None -> impact
      | Some model ->
          Relevance.scale_impact model ~func:outcome.Outcome.fault.Afex_injector.Fault.func
            impact
    in
    if t.config.Config.feedback then
      Feedback.weigh_fitness ?bonus t.feedback ~trace:outcome.Outcome.injection_stack f
    else match bonus with None -> f | Some b -> f +. b
  in
  let case =
    {
      Test_case.point;
      fault = outcome.Outcome.fault;
      status = outcome.Outcome.status;
      triggered = outcome.Outcome.triggered;
      impact;
      fitness;
      birth = t.iterations;
      mutated_axis = proposal.Mutator.mutated_axis;
      injection_stack = outcome.Outcome.injection_stack;
      crash_stack = outcome.Outcome.crash_stack;
      new_blocks;
      duration_ms = outcome.Outcome.duration_ms;
    }
  in
  (* Statistics. *)
  if Test_case.failed case then t.failed <- t.failed + 1;
  (match outcome.Outcome.status with
  | Outcome.Crashed -> t.crashed <- t.crashed + 1
  | Outcome.Hung -> t.hung <- t.hung + 1
  | Outcome.Passed | Outcome.Test_failed -> ());
  if outcome.Outcome.triggered then t.triggered <- t.triggered + 1;
  (* Online redundancy analysis: the indexes absorb each trace as it
     arrives, so {!Session.summarize} reads finished clusters instead of
     re-running the quadratic batch pass over the whole history. *)
  feed_indexes Index.observe ~crash:t.crash_index ~failure:t.failure_index case;
  (* Rarity bookkeeping: remember which rare frontier this test stood on
     (pre-observation, matching the bonus), then absorb its coverage. *)
  let rarest =
    match t.rarity with
    | Some hist ->
        let b = Rarity.rarest_block hist outcome.Outcome.coverage in
        Rarity.observe hist outcome.Outcome.coverage;
        b
    | None -> None
  in
  t.clock.simulated_ms <-
    t.clock.simulated_ms +. outcome.Outcome.duration_ms +. t.config.Config.setup_ms;
  t.records <- case :: t.records;
  if t.iterations mod 100 = 0 then
    Log.info (fun m ->
        m "%s: %d tests, %d failed, %d crashes, %d blocks covered, queue %d"
          t.executor.Executor.description t.iterations t.failed t.crashed
          (Bitset.count t.covered) (Pqueue.size t.queue));
  (* Checked here, so that no test pays for the message's closure. *)
  (match Logs.Src.level log_src with
  | Some Logs.Debug ->
      Log.debug (fun m ->
          m "#%d %a -> %s (impact %.1f, fitness %.1f)" t.iterations
            Afex_faultspace.Point.pp point
            (Outcome.status_to_string outcome.Outcome.status)
            impact fitness)
  | Some _ | None -> ());
  (* Learning. *)
  (match proposal.Mutator.mutated_axis with
  | Some axis -> Sensitivity.record t.sensitivity ~axis ~fitness
  | None -> ());
  (match t.config.Config.strategy with
  | Config.Fitness_guided _ ->
      (* The rare-block map follows the queue: an entry lives exactly as
         long as its test can still be drawn as a parent. *)
      (match rarest with
      | Some b -> Hashtbl.replace t.rare_block case.Test_case.birth b
      | None -> ());
      (match Pqueue.insert ~policy:t.config.Config.eviction t.rng t.queue case with
      | Some c -> Hashtbl.remove t.rare_block c.Test_case.birth
      | None -> ());
      let retired =
        Pqueue.age t.queue ~decay:t.config.Config.aging_decay
          ~retire_below:t.config.Config.retire_threshold
      in
      forget t.rare_block retired;
      (* The queue owns a queued test's fitness: hand [case] its aged
         value, unless aging retired it (its entry was the newest, so it
         heads the retired) and so wrote it already. *)
      (match retired with
      | c :: _ when c == case -> ()
      | _ -> Pqueue.settle_newest t.queue)
  | Config.Random_search | Config.Exhaustive -> ());
  case

let execute t proposal =
  report t proposal (t.executor.Executor.run_scenario (scenario_for t proposal))

let iterations t = t.iterations
let records t =
  Pqueue.settle t.queue;
  List.rev t.records

let failed_count t = t.failed
let crashed_count t = t.crashed
let hung_count t = t.hung
let triggered_count t = t.triggered
let covered_blocks t = Bitset.count t.covered
let simulated_ms t = t.clock.simulated_ms
let sensitivity_probabilities t = Array.copy (Sensitivity.probabilities t.sensitivity)
let rarity_histogram t = t.rarity
let mutator_stats t = t.mutator_stats
let failure_index t = t.failure_index
let crash_index t = t.crash_index
let queue_snapshot t = Pqueue.elements t.queue
let history_size t = History.size t.history
let subspace t = t.sub
let config t = t.config

module Snapshot = struct
  type explorer = t

  type t = {
    rng_state : int64;
    issued : int;
    iterations : int;
    failed : int;
    crashed : int;
    hung : int;
    triggered : int;
    simulated_ms : float;
    cursor_consumed : int;
    covered : Bitset.t;
    records : Test_case.t list;  (* chronological, births above [since] *)
    queue : int list;  (* birth ids, Pqueue.elements order *)
    seeds : Point.t list;  (* analysis seeds not yet consumed *)
    sensitivity : float list array;
    intern_frames : string array;
    feedback : int array list;
    failure_index : Index.dump;
    crash_index : Index.dump;
    rarity : (int * (int * int) list) option;  (* Rarity.dump, when enabled *)
    rare_blocks : (int * int) list;
        (* queued birth -> rarest block, ascending *)
    mutator : Mutator.stats;  (* private copy *)
  }

  let capture ?(since = 0) (e : explorer) =
    if Point.Tbl.length e.pending <> 0 then
      invalid_arg
        "Explorer.Snapshot.capture: candidates still in flight — snapshots \
         are only taken at batch boundaries";
    Pqueue.settle e.queue;
    (* [e.records] is newest first: walk it only down to [since]. *)
    let rec above acc = function
      | (c : Test_case.t) :: rest when c.Test_case.birth > since ->
          above (c :: acc) rest
      | _ -> acc
    in
    {
      rng_state = Rng.state e.rng;
      issued = e.issued;
      iterations = e.iterations;
      failed = e.failed;
      crashed = e.crashed;
      hung = e.hung;
      triggered = e.triggered;
      simulated_ms = e.clock.simulated_ms;
      cursor_consumed = e.cursor_consumed;
      covered = Bitset.copy e.covered;
      records = above [] e.records;
      queue = List.map (fun c -> c.Test_case.birth) (Pqueue.elements e.queue);
      seeds = e.seeds;
      sensitivity = Sensitivity.dump e.sensitivity;
      intern_frames = Trace_intern.dump e.intern;
      feedback = Feedback.dump e.feedback;
      failure_index = Index.dump e.failure_index;
      crash_index = Index.dump e.crash_index;
      rarity = Option.map Rarity.dump e.rarity;
      rare_blocks =
        List.sort compare
          (Hashtbl.fold (fun birth b acc -> (birth, b) :: acc) e.rare_block []);
      mutator = Mutator.copy_stats e.mutator_stats;
    }
end

let capture = Snapshot.capture

let restore ?(transform = fun p -> p) config sub executor (s : Snapshot.t) =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error ("Explorer.restore: " ^ m)) fmt in
  let* intern = Trace_intern.of_frames s.Snapshot.intern_frames in
  let* feedback = Feedback.load ~intern s.Snapshot.feedback in
  let* failure_index = Index.load ~intern s.Snapshot.failure_index in
  let* crash_index = Index.load ~intern s.Snapshot.crash_index in
  (* The indexes' observation order is the records': replay each in
     birth order, by the rule [report] observes by. *)
  let* () =
    let rec replay = function
      | [] -> Ok ()
      | (c : Test_case.t) :: rest -> (
          match
            feed_indexes Index.replay ~crash:crash_index ~failure:failure_index
              c
          with
          | () -> replay rest
          | exception Not_found ->
              err "record %d observes a trace its index does not hold"
                c.Test_case.birth)
    in
    replay s.Snapshot.records
  in
  let* () =
    match (Index.unobserved failure_index, Index.unobserved crash_index) with
    | 0, 0 -> Ok ()
    | f, c ->
        err "%d failure and %d crash traces that no record observes" f c
  in
  let* sensitivity =
    Sensitivity.load ~window:config.Config.sensitivity_window
      ~dims:(Subspace.dim sub) s.Snapshot.sensitivity
  in
  let total_blocks = executor.Executor.total_blocks in
  let* covered =
    (* A decoded set ends at its highest block. *)
    if Bitset.capacity s.Snapshot.covered > total_blocks then
      err "covered block outside the target's %d blocks" total_blocks
    else Ok (Bitset.extend s.Snapshot.covered total_blocks)
  in
  (* Records are appended with birth = iteration count, so the k-th
     chronological record must carry birth k+1; anything else means the
     snapshot is inconsistent even though its checksum held. *)
  let* () =
    let rec check i = function
      | [] ->
          if i = s.Snapshot.iterations then Ok ()
          else err "%d records for %d iterations" i s.Snapshot.iterations
      | c :: rest ->
          if c.Test_case.birth <> i + 1 then
            err "record %d carries birth %d" i c.Test_case.birth
          else check (i + 1) rest
    in
    check 0 s.Snapshot.records
  in
  (* Every executed point was drawn from the subspace. One outside it
     would crash the first lookup of its values, and would let History
     count a point the space does not have. *)
  let* () =
    match
      List.find_opt
        (fun c -> not (Subspace.mem sub c.Test_case.point))
        s.Snapshot.records
    with
    | Some c ->
        err "record %d holds %s, outside the subspace" c.Test_case.birth
          (Point.to_string c.Test_case.point)
    | None -> Ok ()
  in
  let* () =
    let count f = List.fold_left (fun n c -> if f c then n + 1 else n) 0 s.Snapshot.records in
    let failed = count Test_case.failed
    and crashed = count (fun c -> c.Test_case.status = Outcome.Crashed)
    and hung = count (fun c -> c.Test_case.status = Outcome.Hung)
    and triggered = count (fun c -> c.Test_case.triggered) in
    if
      failed <> s.Snapshot.failed
      || crashed <> s.Snapshot.crashed
      || hung <> s.Snapshot.hung
      || triggered <> s.Snapshot.triggered
    then err "statistics disagree with the records"
    else Ok ()
  in
  let* () = if s.Snapshot.issued < 0 then err "negative issued count" else Ok () in
  let* rarity =
    match (config.Config.rarity, s.Snapshot.rarity) with
    | None, None -> Ok None
    | None, Some _ -> err "rarity histogram present but rarity is disabled"
    | Some _, None -> err "rarity enabled but the snapshot holds no histogram"
    | Some _, Some d -> (
        match Rarity.load ~blocks:executor.Executor.total_blocks d with
        | Ok h -> Ok (Some h)
        | Error m -> Error ("Explorer.restore: " ^ m))
  in
  let* rare_block =
    let h = Hashtbl.create 64 in
    let rec fill last = function
      | [] -> Ok h
      | (birth, b) :: rest ->
          if birth <= last then err "rare-block births out of order at %d" birth
          else if birth < 1 || birth > s.Snapshot.iterations then
            err "rare-block birth %d outside the %d-test history" birth
              s.Snapshot.iterations
          else if b < 0 || b >= executor.Executor.total_blocks then
            err "rare block %d outside the target's %d blocks" b
              executor.Executor.total_blocks
          else begin
            Hashtbl.replace h birth b;
            fill birth rest
          end
    in
    if rarity = None && s.Snapshot.rare_blocks <> [] then
      err "rare-block map present but rarity is disabled"
    else fill 0 s.Snapshot.rare_blocks
  in
  let* () =
    let m = s.Snapshot.mutator in
    if
      m.Mutator.proposals < 0 || m.Mutator.masked < 0 || m.Mutator.rejects < 0
      || m.Mutator.masked_rejects < 0 || m.Mutator.random_fallbacks < 0
    then err "negative mutator statistics"
    else Ok ()
  in
  let history = History.create () in
  List.iter (fun c -> History.add history c.Test_case.point) s.Snapshot.records;
  (* The queue is restored by reference into the record list, and takes
     each queued record's fitness from it, exactly as live. A NaN there
     would raise out of the next parent draw. *)
  let by_birth = Hashtbl.create 64 in
  List.iter
    (fun c -> Hashtbl.replace by_birth c.Test_case.birth c)
    s.Snapshot.records;
  let* queue_entries =
    let seen = Hashtbl.create 16 in
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | b :: rest -> (
          if Hashtbl.mem seen b then err "queue lists test %d twice" b
          else begin
            Hashtbl.replace seen b ();
            match Hashtbl.find_opt by_birth b with
            | Some c when Float.is_nan c.Test_case.fitness ->
                err "queued test %d has a NaN fitness" b
            | Some c -> resolve (c :: acc) rest
            | None -> err "queue refers to unknown test %d" b
          end)
    in
    resolve [] s.Snapshot.queue
  in
  let* queue = Pqueue.load ~capacity:config.Config.queue_capacity queue_entries in
  let* cursor =
    if s.Snapshot.cursor_consumed < 0 then err "negative cursor position"
    else begin
      let c = ref (Subspace.enumerate sub) in
      let short = ref false in
      for _ = 1 to s.Snapshot.cursor_consumed do
        if not !short then
          match !c () with
          | Seq.Nil -> short := true
          | Seq.Cons (_, rest) -> c := rest
      done;
      if !short then err "cursor beyond the end of the subspace" else Ok !c
    end
  in
  let pending = Point.Tbl.create 64 in
  let mutator_stats = Mutator.copy_stats s.Snapshot.mutator in
  Ok
    {
      config;
      sub;
      executor;
      transform;
      rng = Rng.of_state s.Snapshot.rng_state;
      queue;
      history;
      sensitivity;
      pending;
      intern;
      feedback;
      failure_index;
      crash_index;
      covered;
      rarity;
      rare_block;
      mutator_stats;
      kernels = kernels_for config sub;
      stats_arg = Some mutator_stats;
      mask = mask_for config rarity rare_block sensitivity;
      pending_mem = Point.Tbl.mem pending;
      seeds = s.Snapshot.seeds;
      cursor;
      cursor_consumed = s.Snapshot.cursor_consumed;
      issued = s.Snapshot.issued;
      iterations = s.Snapshot.iterations;
      records = List.rev s.Snapshot.records;
      failed = s.Snapshot.failed;
      crashed = s.Snapshot.crashed;
      hung = s.Snapshot.hung;
      triggered = s.Snapshot.triggered;
      clock = { simulated_ms = s.Snapshot.simulated_ms };
    }
