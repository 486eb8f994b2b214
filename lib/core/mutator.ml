module Rng = Afex_stats.Rng
module Dist = Afex_stats.Dist
module Subspace = Afex_faultspace.Subspace
module Axis = Afex_faultspace.Axis
module Point = Afex_faultspace.Point

type params = {
  sigma_fraction : float;
  max_attempts : int;
  uniform_axis_choice : bool;
  uniform_value_choice : bool;
  dynamic_sigma : bool;
}

let default_params =
  {
    sigma_fraction = 0.2;
    max_attempts = 40;
    uniform_axis_choice = false;
    uniform_value_choice = false;
    dynamic_sigma = false;
  }

type proposal = { point : Point.t; mutated_axis : int option }

type stats = {
  mutable proposals : int;
  mutable masked : int;
  mutable rejects : int;
  mutable masked_rejects : int;
  mutable random_fallbacks : int;
}

let create_stats () =
  { proposals = 0; masked = 0; rejects = 0; masked_rejects = 0; random_fallbacks = 0 }

let copy_stats s = { s with proposals = s.proposals }

let sigma_for params axis =
  params.sigma_fraction *. float_of_int (Axis.cardinality axis)

(* One Gaussian kernel per axis at its static sigma, built the first time
   the axis is mutated (at most 2 floats per axis value). *)
type kernels = Dist.gaussian Lazy.t array

let kernels params sub =
  Array.init (Subspace.dim sub) (fun i ->
      let axis = Subspace.axis sub i in
      lazy (Dist.gaussian ~sigma:(sigma_for params axis) ~n:(Axis.cardinality axis)))

(* Axis-choice weights with pinned axes zeroed out. If sensitivity left no
   mass on any free axis, the choice degrades to uniform over the free
   axes — never over the pinned ones (Dist.of_weights would treat an
   all-zero array as uniform over everything). *)
let masked_weights ~mask weights =
  let n = Array.length weights in
  if Array.length mask <> n then invalid_arg "Mutator.mutate: mask length mismatch";
  if not (Array.exists not mask) then
    invalid_arg "Mutator.mutate: mask pins every axis";
  let w = Array.mapi (fun i v -> if mask.(i) then 0.0 else v) weights in
  if Array.for_all (fun v -> v <= 0.0) w then
    Array.mapi (fun i _ -> if mask.(i) then 0.0 else 1.0) w
  else w

(* A mutation draws its axis, then the axis's new value: [next]'s
   attempt loop calls the two halves directly, so that an attempt builds
   no pair. *)
let mutation_axis ?mask params rng sub sens =
  match mask with
  | None ->
      if params.uniform_axis_choice then Rng.int rng (Subspace.dim sub)
      else Dist.sample_weighted rng (Sensitivity.probabilities sens)
  | Some mask ->
      let base =
        if params.uniform_axis_choice then Array.make (Subspace.dim sub) 1.0
        else Sensitivity.probabilities sens
      in
      Dist.sample_weighted rng (masked_weights ~mask base)

let offspring ~kernels params rng sub sens ~parent axis_index =
  let axis = Subspace.axis sub axis_index in
  let n = Axis.cardinality axis in
  let old_value = Point.get parent.Test_case.point axis_index in
  let new_value =
    if n < 2 then old_value
    else if params.uniform_value_choice then begin
      (* Uniform over the axis, excluding the current value. *)
      let v = Rng.int rng (n - 1) in
      if v >= old_value then v + 1 else v
    end
    else begin
      let kernel =
        if params.dynamic_sigma then begin
          (* Hot axes (high recent payoff) get finer steps, cold axes wider
             jumps; the factor stays within [0.5, 1.5] of the static sigma.
             The sigma changes with every call, so the kernel does too. *)
          let p = (Sensitivity.probabilities sens).(axis_index) in
          Dist.gaussian ~sigma:(sigma_for params axis *. (1.5 -. p)) ~n
        end
        else Lazy.force kernels.(axis_index)
      in
      Dist.sample_gaussian_excluding rng kernel ~center:old_value
    end
  in
  Point.with_component parent.Test_case.point axis_index new_value

let mutate ?mask ~kernels params rng sub sens ~parent =
  let axis = mutation_axis ?mask params rng sub sens in
  (offspring ~kernels params rng sub sens ~parent axis, axis)

let[@inline] novel history is_pending p =
  (not (History.mem history p)) && not (is_pending p)

(* [next]'s attempt loop, at top level so that a call builds no
   closure: the counters record what burnt the attempt budget, so a
   mask-heavy session degrading to random search is visible instead of
   silent. *)
let rec attempt stats mask kernels params rng sub sens queue history is_pending k =
  if k >= params.max_attempts then begin
    (* Neighbourhoods exhausted: fall back to uniform exploration. *)
    (match stats with
    | Some s -> s.random_fallbacks <- s.random_fallbacks + 1
    | None -> ());
    { point = Subspace.random_point rng sub; mutated_axis = None }
  end
  else begin
    match Pqueue.sample rng queue with
    | None ->
        let p = Subspace.random_point rng sub in
        if novel history is_pending p then { point = p; mutated_axis = None }
        else begin
          (match stats with Some s -> s.rejects <- s.rejects + 1 | None -> ());
          attempt stats mask kernels params rng sub sens queue history is_pending
            (k + 1)
        end
    | Some parent ->
        let m = mask parent in
        let axis = mutation_axis ?mask:m params rng sub sens in
        let point = offspring ~kernels params rng sub sens ~parent axis in
        if novel history is_pending point && Subspace.mem sub point then begin
          (match (stats, m) with
          | Some s, Some _ -> s.masked <- s.masked + 1
          | _ -> ());
          { point; mutated_axis = Some axis }
        end
        else begin
          (match (stats, m) with
          | Some s, Some _ -> s.masked_rejects <- s.masked_rejects + 1
          | Some s, None -> s.rejects <- s.rejects + 1
          | None, _ -> ());
          attempt stats mask kernels params rng sub sens queue history is_pending
            (k + 1)
        end
  end

let next ?stats ?(mask = fun (_ : Test_case.t) -> None) ~kernels params rng
    sub sens ~queue ~history ~is_pending =
  (match stats with Some s -> s.proposals <- s.proposals + 1 | None -> ());
  attempt stats mask kernels params rng sub sens queue history is_pending 0
