(* The 64-bit state lives in 8 bytes rather than a mutable [int64] field:
   such a field holds a boxed int64, so every draw would allocate a new
   box. With the helpers below inlined, a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] state t = Bytes.get_int64_ne t 0
let[@inline] set_state t state = Bytes.set_int64_ne t 0 state

let of_state state =
  let t = Bytes.create 8 in
  set_state t state;
  t

let create seed = of_state (mix (Int64.of_int seed))
let copy t = Bytes.copy t

let[@inline] next t =
  let s = Int64.add (state t) golden_gamma in
  set_state t s;
  mix s

let bits64 t = next t

let split t = of_state (mix (next t))

(* Non-negative 62-bit value, safe to use as an OCaml int. *)
let[@inline] positive_int t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max_value = (1 lsl 62) - 1 in
  let limit = max_value - (max_value mod bound) in
  let v = ref (positive_int t) in
  while !v >= limit do
    v := positive_int t
  done;
  !v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t p = float t 1.0 < p

let gaussian t ~mu ~sigma =
  (* Box-Muller; we only need one deviate per call, simplicity wins. *)
  let rec nonzero () =
    let u = float t 1.0 in
    if u <= 1e-300 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffled_list t l =
  let a = Array.of_list l in
  shuffle t a;
  Array.to_list a

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
