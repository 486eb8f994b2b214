module Rng = Afex_stats.Rng

type t = {
  label : string option;
  axes : Axis.t array;
  cards : int array;  (** per-axis cardinalities: the bounds of each draw *)
  cardinality : int;  (** their product, saturated at [max_int] *)
  hole : (Point.t -> bool) option;  (** [None] when made without [~hole] *)
}

(* Non-negative operands; a product past [max_int] pins there. *)
let saturating_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

let make ?label ?hole axes =
  if axes = [] then invalid_arg "Subspace.make: no axes";
  let axes = Array.of_list axes in
  let cards = Array.map Axis.cardinality axes in
  { label; axes; cards; cardinality = Array.fold_left saturating_mul 1 cards; hole }

let label t = t.label
let axes t = Array.copy t.axes
let dim t = Array.length t.axes
let axis t i = t.axes.(i)

let axis_index t name =
  let rec find i =
    if i >= Array.length t.axes then None
    else if String.equal (Axis.name t.axes.(i)) name then Some i
    else find (i + 1)
  in
  find 0

let cardinality t = t.cardinality
let hole_free t = Option.is_none t.hole
let is_hole t p = match t.hole with None -> false | Some h -> h p

let in_bounds t p =
  if Point.dim p <> dim t then false
  else begin
    let ok = ref true in
    for i = 0 to dim t - 1 do
      let v = Point.get p i in
      if v < 0 || v >= t.cards.(i) then ok := false
    done;
    !ok
  end

let mem t p = in_bounds t p && not (is_hole t p)

let value t p i = Axis.value t.axes.(i) (Point.get p i)

let values t p =
  List.init (dim t) (fun i -> (Axis.name t.axes.(i), value t p i))

let point_of_values t bindings =
  let components = Array.make (dim t) (-1) in
  let ok =
    List.for_all
      (fun (name, v) ->
        match axis_index t name with
        | None -> false
        | Some i -> (
            match Axis.index_of_value t.axes.(i) v with
            | None -> false
            | Some idx ->
                components.(i) <- idx;
                true))
      bindings
  in
  if ok && Array.for_all (fun c -> c >= 0) components then
    Some (Point.of_array components)
  else None

let enumerate t =
  let n = dim t in
  let cards = t.cards in
  (* Successor in lexicographic order; None past the last point. *)
  let next current =
    let c = Array.copy current in
    let rec carry i =
      if i < 0 then None
      else if c.(i) + 1 < cards.(i) then begin
        c.(i) <- c.(i) + 1;
        Some c
      end
      else begin
        c.(i) <- 0;
        carry (i - 1)
      end
    in
    carry (n - 1)
  in
  let rec seq_from current () =
    match current with
    | None -> Seq.Nil
    | Some c ->
        let p = Point.of_array c in
        let rest = seq_from (next c) in
        if is_hole t p then rest () else Seq.Cons (p, rest)
  in
  seq_from (Some (Array.make n 0))

let random_point rng t =
  let cards = t.cards in
  let rec draw attempts =
    if attempts > 100_000 then failwith "Subspace.random_point: space appears to be all holes";
    let p = Point.init (Array.length cards) (fun i -> Rng.int rng cards.(i)) in
    if is_hole t p then draw (attempts + 1) else p
  in
  draw 0

(* Without holes [random_point] makes exactly one [Rng.int] call per axis,
   in axis order, so replaying those calls moves the generator as far. *)
let skip_random_points rng t n =
  if not (hole_free t) then
    invalid_arg "Subspace.skip_random_points: the subspace has holes";
  let cards = t.cards in
  for _ = 1 to n do
    for i = 0 to Array.length cards - 1 do
      ignore (Rng.int rng cards.(i) : int)
    done
  done

let vicinity t center ~d =
  let n = dim t in
  let cards = t.cards in
  (* Distribute the distance budget across axes recursively. *)
  let rec gen i budget acc =
    if i = n then Seq.return (Point.of_array (Array.of_list (List.rev acc)))
    else begin
      let c = Point.get center i in
      let lo = max 0 (c - budget) and hi = min (cards.(i) - 1) (c + budget) in
      let rec over v () =
        if v > hi then Seq.Nil
        else begin
          let used = abs (v - c) in
          Seq.append (gen (i + 1) (budget - used) (v :: acc)) (over (v + 1)) ()
        end
      in
      over lo
    end
  in
  Seq.filter (fun p -> not (is_hole t p)) (gen 0 d [])

let pp ppf t =
  (match t.label with
  | Some l -> Format.fprintf ppf "%s@ " l
  | None -> ());
  Array.iter (fun a -> Format.fprintf ppf "%a@ " Axis.pp a) t.axes;
  Format.fprintf ppf ";"
