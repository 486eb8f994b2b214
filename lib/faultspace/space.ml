module Rng = Afex_stats.Rng
module Dist = Afex_stats.Dist

type t = { subs : Subspace.t array }
type located = { subspace : int; point : Point.t }

let of_subspaces = function
  | [] -> invalid_arg "Space.of_subspaces: empty union"
  | subs -> { subs = Array.of_list subs }

let subspaces t = Array.to_list t.subs

let single t =
  if Array.length t.subs <> 1 then invalid_arg "Space.single: union has several subspaces";
  t.subs.(0)

(* Subspace cardinalities saturate at [max_int]; so does their sum. *)
let cardinality t =
  Array.fold_left
    (fun acc s ->
      let c = Subspace.cardinality s in
      if acc > max_int - c then max_int else acc + c)
    0 t.subs

let mem t { subspace; point } =
  subspace >= 0 && subspace < Array.length t.subs && Subspace.mem t.subs.(subspace) point

let enumerate t =
  let rec over i () =
    if i >= Array.length t.subs then Seq.Nil
    else begin
      let here =
        Seq.map (fun point -> { subspace = i; point }) (Subspace.enumerate t.subs.(i))
      in
      Seq.append here (over (i + 1)) ()
    end
  in
  over 0

let random rng t =
  let weights = Array.map (fun s -> float_of_int (Subspace.cardinality s)) t.subs in
  let i = Dist.sample_weighted rng weights in
  { subspace = i; point = Subspace.random_point rng t.subs.(i) }

let values t { subspace; point } = Subspace.values t.subs.(subspace) point

let pp ppf t =
  Array.iter (fun s -> Format.fprintf ppf "%a@." Subspace.pp s) t.subs
