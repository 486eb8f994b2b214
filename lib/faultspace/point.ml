type t = int array

let of_array a =
  Array.iter (fun x -> if x < 0 then invalid_arg "Point.of_array: negative component") a;
  Array.copy a

let init n f =
  let a = Array.init n f in
  for i = 0 to n - 1 do
    if a.(i) < 0 then invalid_arg "Point.init: negative component"
  done;
  a

let of_list l = of_array (Array.of_list l)
let to_array t = Array.copy t
let to_list t = Array.to_list t
let dim t = Array.length t
let get t i = t.(i)

let with_component t i v =
  if v < 0 then invalid_arg "Point.with_component: negative component";
  let c = Array.copy t in
  c.(i) <- v;
  c

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

let compare a b = Stdlib.compare a b

(* Every component goes through a multiply-xorshift round, so points that
   differ only in high bits still land in different low-bit buckets. *)
let hash t =
  let h = ref (Array.length t) in
  for i = 0 to Array.length t - 1 do
    let x = (!h lxor t.(i)) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let check_dims a b =
  if Array.length a <> Array.length b then
    invalid_arg "Point: dimension mismatch"

let manhattan a b =
  check_dims a b;
  let d = ref 0 in
  for i = 0 to Array.length a - 1 do
    d := !d + abs (a.(i) - b.(i))
  done;
  !d

let chebyshev a b =
  check_dims a b;
  let d = ref 0 in
  for i = 0 to Array.length a - 1 do
    d := max !d (abs (a.(i) - b.(i)))
  done;
  !d

let key t = String.concat "," (List.map string_of_int (Array.to_list t))

let to_string t =
  "<" ^ String.concat ", " (List.map string_of_int (Array.to_list t)) ^ ">"

let pp ppf t = Format.pp_print_string ppf (to_string t)
