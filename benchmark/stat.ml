(* Order statistics shared by the runner, the per-layer summaries and the
   compare tool. Every function takes the samples in any order. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = Afex_stats.Summary.(median (of_list xs))

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), so the quartiles printed here match the ones the spread of a
   set of runs is judged by. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stat.quartiles: need at least two samples";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (cut 1, cut 2, cut 3)

(* Nearest-rank percentile of an already sorted array. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* Run-to-run spread, in the samples' unit: the interquartile range once
   there are four samples, the full range below that. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ when List.length xs >= 4 ->
      let q1, _, q3 = quartiles xs in
      q3 -. q1
  | _ ->
      let a = sorted xs in
      a.(Array.length a - 1) -. a.(0)
