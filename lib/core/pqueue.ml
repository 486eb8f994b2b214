module Rng = Afex_stats.Rng
module Dist = Afex_stats.Dist

(* The queue is small (tens of entries), so a flat array with O(n)
   shifts is simpler than a heap and fast enough: sampling is O(n)
   regardless because it is probabilistic, not max-first. [entries.(0)]
   is the newest entry, and [fitness.(i)] is the fitness of
   [entries.(i)]: the queue owns it, in an unboxed column, so aging,
   drawing and eviction write no heap word. A record's own [fitness]
   field is written only when it leaves the queue or is read ([settle]).
   Slots at [size] and beyond are never read; they may still hold
   entries that have left. Both arrays are allocated once: [entries] on
   the first insert, which has a record to fill it with. *)
type t = {
  capacity : int;
  mutable entries : Test_case.t array;
  fitness : float array;
  mutable size : int;
  weights : float array;  (** scratch for sampling *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Pqueue.create: capacity < 1";
  {
    capacity;
    entries = [||];
    fitness = Array.make capacity 0.0;
    size = 0;
    weights = Array.make capacity 0.0;
  }

let load ~capacity entries =
  if capacity < 1 then Error "Pqueue.load: capacity < 1"
  else
    let size = List.length entries in
    if size > capacity then Error "Pqueue.load: more entries than capacity"
    else
      let t = create ~capacity in
      match entries with
      | [] -> Ok t
      | first :: _ ->
          t.entries <- Array.make capacity first;
          List.iteri
            (fun i (c : Test_case.t) ->
              t.entries.(i) <- c;
              t.fitness.(i) <- c.Test_case.fitness)
            entries;
          t.size <- size;
          Ok t

let size t = t.size
let is_empty t = t.size = 0
let capacity t = t.capacity

(* Sampling floor: even zero-fitness entries keep a small chance, so the
   search never hard-locks onto one test. *)
let floor_weight = 1e-6

let[@inline] weight ~inverse f =
  let w = Float.max floor_weight f in
  if inverse then Float.max floor_weight (1.0 /. w) else w

(* The entries' weights go into a scratch array the queue owns, so a
   draw is [Dist.sample_weighted] over them without building anything. *)
let draw ~inverse rng t =
  for i = 0 to t.size - 1 do
    t.weights.(i) <- weight ~inverse t.fitness.(i)
  done;
  Dist.sample_weighted_prefix rng t.weights ~len:t.size

type eviction = Inverse_fitness | Drop_min

(* Put [case] in front of the entries [0 .. k-1], overwriting slot [k]. *)
let push_front t (case : Test_case.t) k =
  Array.blit t.entries 0 t.entries 1 k;
  Array.blit t.fitness 0 t.fitness 1 k;
  t.entries.(0) <- case;
  t.fitness.(0) <- case.Test_case.fitness

(* Hand slot [i]'s fitness back to its record. *)
let[@inline] settle_slot t i = t.entries.(i).Test_case.fitness <- t.fitness.(i)

let insert ?(policy = Inverse_fitness) rng t case =
  if t.size < t.capacity then begin
    if Array.length t.entries = 0 then t.entries <- Array.make t.capacity case;
    push_front t case t.size;
    t.size <- t.size + 1;
    None
  end
  else begin
    let victim_index =
      match policy with
      | Inverse_fitness -> draw ~inverse:true rng t
      | Drop_min ->
          let best = ref 0 and best_fitness = ref infinity in
          for i = 0 to t.size - 1 do
            let f = t.fitness.(i) in
            if f < !best_fitness then begin
              best := i;
              best_fitness := f
            end
          done;
          !best
    in
    settle_slot t victim_index;
    let victim = t.entries.(victim_index) in
    push_front t case victim_index;
    Some victim
  end

let sample rng t =
  if t.size = 0 then None else Some t.entries.(draw ~inverse:false rng t)

let age t ~decay ~retire_below =
  let retiring = ref false in
  for i = 0 to t.size - 1 do
    let f = t.fitness.(i) *. decay in
    t.fitness.(i) <- f;
    if not (f >= retire_below) then retiring := true
  done;
  if not !retiring then []
  else begin
    (* Keep the survivors in order; hand back the retired in order. *)
    let kept = ref 0 and retired = ref [] in
    for i = 0 to t.size - 1 do
      let f = t.fitness.(i) in
      if f >= retire_below then begin
        t.entries.(!kept) <- t.entries.(i);
        t.fitness.(!kept) <- f;
        incr kept
      end
      else begin
        settle_slot t i;
        retired := t.entries.(i) :: !retired
      end
    done;
    t.size <- !kept;
    List.rev !retired
  end

let settle t =
  for i = 0 to t.size - 1 do
    settle_slot t i
  done

let settle_newest t = if t.size > 0 then settle_slot t 0

let mean_fitness t =
  if t.size = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.size - 1 do
      sum := !sum +. t.fitness.(i)
    done;
    !sum /. float_of_int t.size
  end

let elements t =
  settle t;
  List.init t.size (fun i -> t.entries.(i))
