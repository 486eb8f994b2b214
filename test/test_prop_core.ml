(* Property-test sweep over the search core, on the Prop harness: the
   Gaussian mutator never leaves the axis domains, Q_priority's bounded
   invariants hold under arbitrary op sequences, its in-place draws pick
   what the materialized Dist reference picks, History membership is
   insensitive to insertion order, and the pool's submission-order merge
   explores exactly the sequential history for random seeds and
   windows. Failures shrink to a minimal seed/window/op-list. *)

module Rng = Afex_stats.Rng
module Axis = Afex_faultspace.Axis
module Point = Afex_faultspace.Point
module Subspace = Afex_faultspace.Subspace
module Pqueue = Afex.Pqueue
module History = Afex.History
module Mutator = Afex.Mutator
module Sensitivity = Afex.Sensitivity
module Test_case = Afex.Test_case
module Session = Afex.Session
module Config = Afex.Config
module Pool = Afex_cluster.Pool
module Outcome = Afex_injector.Outcome
module Apache = Afex_simtarget.Apache

let checkb = Alcotest.(check bool)

let case ?(fitness = 1.0) point =
  {
    Test_case.point;
    fault = Afex_injector.Fault.make ~test_id:0 ~func:"read" ~call_number:1 ();
    status = Afex_injector.Outcome.Passed;
    triggered = true;
    impact = fitness;
    fitness;
    birth = 0;
    mutated_axis = None;
    injection_stack = None;
    crash_stack = None;
    new_blocks = 0;
    duration_ms = 0.1;
  }

(* --- Gaussian mutation stays inside the axis domains ---------------- *)

(* A random subspace described by its axis cardinalities (mixing ranges,
   symbol alphabets and subintervals), a parent inside it, and a seed for
   the mutation draw itself. *)
let arb_mutation_setup =
  let arb_cards = Prop.list ~max_length:5 (Prop.int_range 1 12) in
  Prop.(
    map
      ~shrink:(fun (cards, seed) ->
        List.map (fun cards' -> (cards', seed)) (arb_cards.shrink cards)
        @ List.map (fun seed' -> (cards, seed')) (shrink_int ~towards:0 seed))
      ~show:(fun (cards, seed) ->
        Printf.sprintf "cards=[%s] seed=%d"
          (String.concat ";" (List.map string_of_int cards))
          seed)
      (fun (cards, seed) -> (cards, seed))
      (pair arb_cards (int_range 0 10_000)))

let subspace_of_cards cards =
  let axis i card =
    match i mod 3 with
    | 0 -> Axis.range (Printf.sprintf "r%d" i) ~lo:0 ~hi:(card - 1)
    | 1 ->
        Axis.symbols
          (Printf.sprintf "s%d" i)
          (List.init card (Printf.sprintf "sym%d"))
    | _ -> Axis.subinterval (Printf.sprintf "i%d" i) ~lo:1 ~hi:card
  in
  Subspace.make (List.mapi axis cards)

let test_mutation_stays_in_bounds () =
  Prop.check ~count:150 "gaussian mutation respects axis domains"
    arb_mutation_setup (fun (cards, seed) ->
      let cards = if cards = [] then [ 3 ] else cards in
      let sub = subspace_of_cards cards in
      let rng = Rng.create seed in
      let sens = Sensitivity.create ~dims:(Subspace.dim sub) () in
      let parent = case (Subspace.random_point rng sub) in
      let kernels = Mutator.kernels Mutator.default_params sub in
      let ok = ref true in
      for _ = 1 to 20 do
        let offspring, axis =
          Mutator.mutate ~kernels Mutator.default_params rng sub sens ~parent
        in
        ok :=
          !ok && Subspace.mem sub offspring && 0 <= axis
          && axis < Subspace.dim sub
      done;
      !ok)

(* --- Q_priority invariants under arbitrary op sequences ------------- *)

(* Ops are encoded as small ints so the harness can shrink a failing
   sequence: n mod 4 picks the operation, n / 4 its argument. *)
let arb_pqueue_ops =
  Prop.(pair (int_range 1 8) (list ~max_length:40 (int_range 0 399)))

let test_pqueue_invariants () =
  Prop.check ~count:150 "pqueue bounded invariants" arb_pqueue_ops
    (fun (capacity, ops) ->
      let q = Pqueue.create ~capacity in
      let rng = Rng.create 7 in
      let invariant () =
        Pqueue.size q <= Pqueue.capacity q
        && Pqueue.size q = List.length (Pqueue.elements q)
        && Pqueue.is_empty q = (Pqueue.size q = 0)
        && (Pqueue.is_empty q || Pqueue.mean_fitness q >= 0.0)
      in
      List.for_all
        (fun n ->
          let arg = n / 4 in
          (match n mod 4 with
          | 0 ->
              let fitness = float_of_int arg /. 10.0 in
              let size_before = Pqueue.size q in
              let victim =
                Pqueue.insert rng q
                  (case ~fitness (Point.of_list [ arg; 0; 0 ]))
              in
              (* an eviction happens exactly when the queue was full *)
              if size_before < capacity then assert (victim = None)
              else assert (victim <> None)
          | 1 ->
              let c =
                case ~fitness:(float_of_int arg) (Point.of_list [ arg; 1; 0 ])
              in
              ignore (Pqueue.insert ~policy:Pqueue.Drop_min rng q c)
          | 2 -> (
              match Pqueue.sample rng q with
              | None -> assert (Pqueue.is_empty q)
              | Some _ -> assert (not (Pqueue.is_empty q)))
          | _ ->
              let retired = Pqueue.age q ~decay:0.5 ~retire_below:0.2 in
              List.iter
                (fun (c : Test_case.t) -> assert (c.fitness < 0.2))
                retired);
          invariant ())
        ops)

(* --- Q_priority draws match the materialized reference ---------------- *)

(* The queue samples and evicts by scanning its entries in place; the
   reference materializes the weight array over [Pqueue.elements] and
   draws with [Dist.of_weights] + [Dist.sample]. Both must pick the same
   entry and leave the RNG in the same state. *)
let arb_fitnesses =
  Prop.(
    pair
      (list ~max_length:12
         (choose [ 0.0; 1.0; 25.0; 1e-9; -3.0; 0.49; 1e7; 3.5 ]))
      (int_range 0 100_000))

let test_pqueue_draws_match_reference () =
  let module Dist = Afex_stats.Dist in
  Prop.check ~count:200 "pqueue draws = Dist reference" arb_fitnesses
    (fun (fitnesses, seed) ->
      let capacity = max 1 (List.length fitnesses) in
      let cases =
        List.mapi (fun i fitness -> case ~fitness (Point.of_list [ i ])) fitnesses
      in
      let fresh () =
        match Pqueue.load ~capacity cases with
        | Ok q -> q
        | Error m -> failwith m
      in
      let weights f =
        Array.of_list
          (List.map (fun (c : Test_case.t) -> Float.max 1e-6 (f c.fitness)) cases)
      in
      let r1 = Rng.create seed and r2 = Rng.create seed in
      let same_rng () = Rng.state r1 = Rng.state r2 in
      let sampled =
        List.for_all
          (fun _ ->
            match Pqueue.sample r1 (fresh ()) with
            | None -> cases = []
            | Some c ->
                let i = Dist.sample r2 (Dist.of_weights (weights Fun.id)) in
                c == List.nth cases i && same_rng ())
          (List.init 20 Fun.id)
      in
      let newcomer = case ~fitness:2.0 (Point.of_list [ 99 ]) in
      let evicted =
        cases = []
        ||
        let q = fresh () in
        match Pqueue.insert r1 q newcomer with
        | None -> false
        | Some victim ->
            let i =
              Dist.sample r2
                (Dist.of_weights (weights (fun f -> 1.0 /. Float.max 1e-6 f)))
            in
            victim == List.nth cases i
            && same_rng ()
            && Pqueue.elements q
               = newcomer :: List.filteri (fun j _ -> j <> i) cases
      in
      let aged =
        let q = fresh () in
        let retired = Pqueue.age q ~decay:0.5 ~retire_below:0.3 in
        let kept, gone =
          List.partition (fun (c : Test_case.t) -> c.fitness >= 0.3) cases
        in
        List.for_all2 ( == ) retired gone
        && List.for_all2 ( == ) (Pqueue.elements q) kept
      in
      sampled && evicted && aged)

(* --- Q_priority against the queue that aged records in place ------- *)

(* Q_priority as it was before it kept fitness in a column of its own:
   every draw read the queued records' [fitness] fields, and aging
   rewrote them in place. *)
module Reference_queue = struct
  module Dist = Afex_stats.Dist

  type t = {
    capacity : int;
    mutable entries : Test_case.t array;
    mutable size : int;
    weights : float array;
  }

  let create ~capacity =
    { capacity; entries = [||]; size = 0; weights = Array.make capacity 0.0 }

  let weight ~inverse (c : Test_case.t) =
    let w = Float.max 1e-6 c.fitness in
    if inverse then Float.max 1e-6 (1.0 /. w) else w

  let draw ~inverse rng t =
    for i = 0 to t.size - 1 do
      t.weights.(i) <- weight ~inverse t.entries.(i)
    done;
    Dist.sample_weighted_prefix rng t.weights ~len:t.size

  let push_front t case k =
    Array.blit t.entries 0 t.entries 1 k;
    t.entries.(0) <- case

  let insert ~policy rng t case =
    if t.size < t.capacity then begin
      if t.size = 0 then t.entries <- Array.make t.capacity case;
      push_front t case t.size;
      t.size <- t.size + 1;
      None
    end
    else begin
      let victim_index =
        match policy with
        | Pqueue.Inverse_fitness -> draw ~inverse:true rng t
        | Pqueue.Drop_min ->
            let best = ref 0 and best_fitness = ref infinity in
            for i = 0 to t.size - 1 do
              let f = t.entries.(i).fitness in
              if f < !best_fitness then begin
                best := i;
                best_fitness := f
              end
            done;
            !best
      in
      let victim = t.entries.(victim_index) in
      push_front t case victim_index;
      Some victim
    end

  let sample rng t =
    if t.size = 0 then None else Some t.entries.(draw ~inverse:false rng t)

  let age t ~decay ~retire_below =
    for i = 0 to t.size - 1 do
      let case = t.entries.(i) in
      case.fitness <- case.fitness *. decay
    done;
    let kept = ref 0 and retired = ref [] in
    for i = 0 to t.size - 1 do
      let case = t.entries.(i) in
      if case.fitness >= retire_below then begin
        t.entries.(!kept) <- case;
        incr kept
      end
      else retired := case :: !retired
    done;
    t.size <- !kept;
    List.rev !retired

  let elements t = List.init t.size (fun i -> t.entries.(i))
end

(* Ops as small ints again: n mod 5 picks insert (either policy),
   sample, age or elements, n / 5 the fitness or the decay. Each insert
   gives the two queues twin records that share a birth, so a return is
   matched by birth and then checked physically. *)
let arb_column_ops =
  Prop.(
    pair
      (pair (int_range 1 8) (int_range 0 9999))
      (list ~max_length:60 (int_range 0 499)))

let fitness_choices = [| 0.0; 1.0; 25.0; 1e-9; -3.0; 0.49; 0.51; 1e7; 3.5; 0.7; 2.0 |]

let test_pqueue_matches_in_place_reference () =
  Prop.check ~count:300 "pqueue = in-place aging reference" arb_column_ops
    (fun ((capacity, seed), ops) ->
      let q = Pqueue.create ~capacity and r = Reference_queue.create ~capacity in
      let rq = Rng.create seed and rr = Rng.create seed in
      let mine = Hashtbl.create 64 and theirs = Hashtbl.create 64 in
      let left = ref [] in
      let twin (c : Test_case.t) (d : Test_case.t) =
        c.birth = d.birth
        && Hashtbl.find mine c.birth == c
        && Hashtbl.find theirs d.birth == d
      in
      let same_fitness (c : Test_case.t) (d : Test_case.t) =
        Int64.equal (Int64.bits_of_float c.fitness) (Int64.bits_of_float d.fitness)
      in
      let same_read cs ds =
        List.length cs = List.length ds
        && List.for_all2 (fun c d -> twin c d && same_fitness c d) cs ds
      in
      List.for_all
        (fun n ->
          let arg = n / 5 in
          let returns_agree =
            match n mod 5 with
            | (0 | 1) as op ->
                let birth = Hashtbl.length mine in
                let fitness = fitness_choices.(arg mod Array.length fitness_choices) in
                let c = { (case ~fitness (Point.of_list [ birth ])) with birth } in
                let d = { c with birth } in
                Hashtbl.replace mine birth c;
                Hashtbl.replace theirs birth d;
                let policy = if op = 0 then Pqueue.Inverse_fitness else Pqueue.Drop_min in
                (match
                   (Pqueue.insert ~policy rq q c, Reference_queue.insert ~policy rr r d)
                 with
                | None, None -> true
                | Some c, Some d ->
                    left := c.birth :: !left;
                    twin c d && same_fitness c d
                | Some _, None | None, Some _ -> false)
            | 2 -> (
                match (Pqueue.sample rq q, Reference_queue.sample rr r) with
                | None, None -> true
                | Some c, Some d -> twin c d
                | Some _, None | None, Some _ -> false)
            | 3 ->
                let decay = if arg mod 2 = 0 then 0.98 else 0.5 in
                let cs = Pqueue.age q ~decay ~retire_below:0.5
                and ds = Reference_queue.age r ~decay ~retire_below:0.5 in
                List.iter (fun (c : Test_case.t) -> left := c.birth :: !left) cs;
                same_read cs ds
            | _ -> same_read (Pqueue.elements q) (Reference_queue.elements r)
          in
          returns_agree
          && Rng.state rq = Rng.state rr
          && Pqueue.size q = r.Reference_queue.size
          && List.for_all
               (fun b -> same_fitness (Hashtbl.find mine b) (Hashtbl.find theirs b))
               !left)
        ops)

(* --- History is insertion-order insensitive ------------------------- *)

let arb_points =
  Prop.list ~max_length:25
    (Prop.map
       ~show:(fun p -> Point.key p)
       (fun (a, (b, c)) -> Point.of_list [ a; b; c ])
       (Prop.pair (Prop.int_range 0 5)
          (Prop.pair (Prop.int_range 0 5) (Prop.int_range 0 5))))

let test_history_order_insensitive () =
  Prop.check ~count:150 "history membership ignores insertion order"
    arb_points (fun points ->
      let build order =
        let h = History.create () in
        List.iter (History.add h) order;
        h
      in
      let forward = build points and backward = build (List.rev points) in
      History.size forward = History.size backward
      && List.for_all
           (fun p -> History.mem forward p && History.mem backward p)
           points)

(* --- pool merge order equals sequential exploration ----------------- *)

let history (r : Session.result) =
  List.map
    (fun (c : Test_case.t) ->
      (Point.key c.Test_case.point, Outcome.status_to_string c.Test_case.status,
       c.Test_case.fitness))
    r.Session.executed

let arb_seed_window = Prop.(pair (int_range 0 9999) (int_range 1 24))

let test_pool_merge_matches_sequential () =
  (* The pool's submission-order merge means the explored history is a
     function of (seed, window) alone — never of jobs. Spot-checked
     across the whole (seed, window) plane rather than at hand-picked
     values; a failure shrinks towards window 1, where the pool's
     schedule degenerates to Session.run's. *)
  Prop.check ~count:12 "pool history independent of jobs" arb_seed_window
    (fun (seed, window) ->
      let run jobs =
        let config = Config.fitness_guided ~seed () in
        let r, _ =
          Pool.run ~batch_size:window ~jobs ~iterations:60 config
            (Apache.space ())
            (Pool.Pure (Afex.Executor.of_target (Apache.target ())))
        in
        history r
      in
      run 1 = run 2)

let test_pool_window_one_is_sequential () =
  Prop.check ~count:8 "window 1 equals Session.run" (Prop.int_range 0 9999)
    (fun seed ->
      let config = Config.fitness_guided ~seed () in
      let sequential =
        Session.run ~iterations:50 config (Apache.space ())
          (Afex.Executor.of_target (Apache.target ()))
      in
      let pooled, _ =
        Pool.run ~batch_size:1 ~jobs:1 ~iterations:50 config (Apache.space ())
          (Pool.Pure (Afex.Executor.of_target (Apache.target ())))
      in
      history sequential = history pooled)

let test_shrinking_reports_minimal_ops () =
  (* Meta-check that a genuinely broken property over the op encoding
     shrinks to the smallest violating sequence, so pqueue regressions
     surface as one-op reproducers rather than 40-op dumps. *)
  match
    Prop.find_counterexample ~count:100 arb_pqueue_ops (fun (_, ops) ->
        List.for_all (fun n -> n mod 4 <> 3) ops)
  with
  | None -> Alcotest.fail "expected a counterexample"
  | Some f ->
      let _, ops = f.Prop.shrunk in
      checkb "shrunk to a single offending op" true
        (List.length ops = 1 && List.for_all (fun n -> n mod 4 = 3) ops)

let suite =
  [
    Alcotest.test_case "mutation stays in bounds" `Quick
      test_mutation_stays_in_bounds;
    Alcotest.test_case "pqueue invariants" `Quick test_pqueue_invariants;
    Alcotest.test_case "history order insensitive" `Quick
      test_history_order_insensitive;
    Alcotest.test_case "pool merge matches sequential" `Slow
      test_pool_merge_matches_sequential;
    Alcotest.test_case "window 1 is sequential" `Slow
      test_pool_window_one_is_sequential;
    Alcotest.test_case "op shrinking is minimal" `Quick
      test_shrinking_reports_minimal_ops;
    Alcotest.test_case "pqueue draws match reference" `Quick
      test_pqueue_draws_match_reference;
    Alcotest.test_case "pqueue matches in-place aging" `Quick
      test_pqueue_matches_in_place_reference;
  ]
