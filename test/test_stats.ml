(* Tests for afex_stats: PRNG, distributions, summaries, bitsets. *)

module Rng = Afex_stats.Rng
module Dist = Afex_stats.Dist
module Summary = Afex_stats.Summary
module Bitset = Afex_stats.Bitset

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  checkb "different seeds diverge" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* Advancing one does not affect the other. *)
  let _ = Rng.bits64 a in
  let a' = Rng.bits64 a and b' = Rng.bits64 b in
  checkb "streams now independent" true (a' <> b')

let test_rng_split () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  checkb "split streams differ" true (xa <> xb)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 7 in
    checkb "in [0,7)" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_int_in () =
  let rng = Rng.create 4 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    let v = Rng.int_in rng (-3) 3 in
    checkb "in [-3,3]" true (v >= -3 && v <= 3);
    Hashtbl.replace seen v ()
  done;
  checki "all 7 values reachable" 7 (Hashtbl.length seen)

let test_rng_float_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    checkb "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 6 in
  for _ = 1 to 100 do
    checkb "p=0 never true" false (Rng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    checkb "p=1 always true" true (Rng.bernoulli rng 1.0)
  done

let test_rng_gaussian_moments () =
  let rng = Rng.create 8 in
  let n = 20_000 in
  let samples = List.init n (fun _ -> Rng.gaussian rng ~mu:5.0 ~sigma:2.0) in
  let s = Summary.of_list samples in
  checkb "mean near 5" true (Float.abs (Summary.mean s -. 5.0) < 0.1);
  checkb "stddev near 2" true (Float.abs (Summary.stddev s -. 2.0) < 0.1)

let test_rng_permutation () =
  let rng = Rng.create 10 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick_singleton () =
  let rng = Rng.create 11 in
  checki "singleton pick" 99 (Rng.pick rng [| 99 |]);
  Alcotest.check_raises "empty pick rejected"
    (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng ([||] : int array)))

(* --- Dist --- *)

let test_dist_uniform_support () =
  let d = Dist.uniform 4 in
  checki "support" 4 (Dist.support d);
  Array.iter (fun p -> checkf "uniform prob" 0.25 p) (Dist.weights d)

let test_dist_weighted_normalization () =
  let d = Dist.of_weights [| 1.0; 3.0 |] in
  let w = Dist.weights d in
  checkf "first" 0.25 w.(0);
  checkf "second" 0.75 w.(1)

let test_dist_zero_weights_uniform () =
  let d = Dist.of_weights [| 0.0; 0.0; 0.0 |] in
  Array.iter (fun p -> checkf "fallback uniform" (1.0 /. 3.0) p) (Dist.weights d)

let test_dist_negative_rejected () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Dist.of_weights: negative or NaN weight") (fun () ->
      ignore (Dist.of_weights [| 1.0; -1.0 |]))

let test_dist_sampling_frequencies () =
  let rng = Rng.create 21 in
  let d = Dist.of_weights [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let i = Dist.sample rng d in
    counts.(i) <- counts.(i) + 1
  done;
  checki "zero-weight index never drawn" 0 counts.(1);
  let f0 = float_of_int counts.(0) /. float_of_int n in
  checkb "frequency near 0.25" true (Float.abs (f0 -. 0.25) < 0.02)

let test_gaussian_center_heaviest () =
  let d = Dist.discrete_gaussian ~center:5 ~sigma:2.0 ~n:11 in
  let w = Dist.weights d in
  Array.iteri (fun i p -> if i <> 5 then checkb "center is mode" true (w.(5) >= p)) w

let test_gaussian_symmetric () =
  let d = Dist.discrete_gaussian ~center:5 ~sigma:1.5 ~n:11 in
  let w = Dist.weights d in
  for k = 1 to 5 do
    checkb "symmetric around center" true (Float.abs (w.(5 - k) -. w.(5 + k)) < 1e-9)
  done

let test_gaussian_excluding_center () =
  let rng = Rng.create 22 in
  for _ = 1 to 500 do
    let v = Dist.sample_gaussian_excluding rng (Dist.gaussian ~sigma:1.0 ~n:8) ~center:3 in
    checkb "never center" true (v <> 3);
    checkb "in range" true (v >= 0 && v < 8)
  done

let test_gaussian_excluding_tiny_sigma () =
  (* Pathologically narrow sigma: the fallback must still move. *)
  let rng = Rng.create 23 in
  for _ = 1 to 100 do
    let v = Dist.sample_gaussian_excluding rng (Dist.gaussian ~sigma:1e-12 ~n:5) ~center:0 in
    checkb "moved off center" true (v <> 0)
  done

(* --- In-place samplers vs the materialized reference ---

   [Dist.sample_weighted] and [Dist.sample_gaussian_excluding] must return
   the index [Dist.sample] over the materialized distribution returns,
   and leave the RNG in the same state, draw after draw. Random draws
   almost never land within an ulp of a cumulative boundary, where a
   drifted sum or a [<] for [<=] would show; so each case also starts
   generators whose first draw is steered onto and beside every
   boundary. *)

(* [Rng.bits64] adds a constant to the state and mixes it; the mix is a
   chain of xor-shifts and multiplications by odd constants, each a
   bijection on 64 bits, so a state that yields any wanted first output
   can be computed. *)
let unxorshift z k =
  let x = ref z in
  for _ = 1 to (64 / k) + 1 do
    x := Int64.logxor z (Int64.shift_right_logical !x k)
  done;
  !x

(* Inverse of an odd multiplier modulo 2^64 by Newton's iteration. *)
let inverse_odd m =
  let x = ref m in
  for _ = 1 to 6 do
    x := Int64.mul !x (Int64.sub 2L (Int64.mul m !x))
  done;
  !x

let unmix z =
  let z = unxorshift z 31 in
  let z = Int64.mul z (inverse_odd 0x94D049BB133111EBL) in
  let z = unxorshift z 27 in
  let z = Int64.mul z (inverse_odd 0xBF58476D1CE4E5B9L) in
  unxorshift z 30

let two53 = 9007199254740992.0

(* A generator state whose first [Rng.float _ 1.0] is [k / 2^53]. *)
let state_drawing k =
  let bits = Int64.shift_left (Int64.of_float k) 11 in
  Int64.sub (unmix bits) 0x9E3779B97F4A7C15L

(* States whose first draw is each representable value on or next to a
   cumulative boundary of [probs], plus the extremes 0 and 1 - 2^-53. On
   long domains only some boundaries are steered: about 32 spread evenly,
   the last three, and those around the mode, where the mass is. *)
let boundary_states probs =
  let n = Array.length probs in
  let mode = ref 0 in
  Array.iteri (fun i p -> if p > probs.(!mode) then mode := i) probs;
  let stride = max 1 (n / 32) in
  let acc = ref 0.0 and ks = ref [ 0.0; two53 -. 1.0 ] in
  for i = 0 to n - 2 do
    acc := !acc +. probs.(i);
    if i mod stride = 0 || abs (i - !mode) <= 4 || i >= n - 4 then begin
      let k = !acc *. two53 in
      List.iter
        (fun k -> if k >= 0.0 && k < two53 then ks := k :: !ks)
        [ Float.round k -. 1.0; floor k; ceil k; Float.round k +. 1.0 ]
    end
  done;
  List.map state_drawing (List.sort_uniq compare !ks)

let test_steered_rng () =
  List.iter
    (fun k ->
      let u = Rng.float (Rng.of_state (state_drawing k)) 1.0 in
      checkb (Printf.sprintf "first draw %h" (k /. two53)) true (u = k /. two53))
    [ 0.0; 1.0; 12345.0; two53 /. 2.0; two53 -. 1.0 ]

let same_draws ~draws name reference fast state =
  let r1 = Rng.of_state state and r2 = Rng.of_state state in
  for k = 1 to draws do
    let want = reference r1 in
    let got = fast r2 in
    if want <> got || Rng.state r1 <> Rng.state r2 then
      Alcotest.failf "%s: draw %d from state %Ld gave %d (reference %d), rng %s"
        name k state got want
        (if Rng.state r1 = Rng.state r2 then "in step" else "out of step")
  done

(* Seeded draws, then one steered draw (and a few after it) per
   boundary of the reference distribution [probs]. *)
let agree ~draws ~seed ~probs name reference fast =
  same_draws ~draws name reference fast (Rng.state (Rng.create seed));
  List.iter (same_draws ~draws:3 name reference fast) (boundary_states probs)

(* Weights mixing zeros (often at the ends), ordinary values, tiny and
   huge ones; a vector may be all zeros (uniform) or overflow its total. *)
let arb_weights =
  let weight =
    Prop.choose [ 0.0; 1.0; 0.5; 3.0; 1e-300; 7.25; 1e300; 1e308; 0.1 ]
  in
  Prop.(
    map
      ~show:(fun (w, seed) ->
        Printf.sprintf "seed=%d [|%s|]" seed
          (String.concat "; " (List.map (Printf.sprintf "%h") w)))
      (fun (w, seed) -> (w, seed))
      (pair (list ~max_length:12 weight) (int_range 0 100_000)))

let test_sample_weighted_matches_reference () =
  Prop.check ~count:400 "sample_weighted = sample (of_weights w)" arb_weights
    (fun (w, seed) ->
      let w = Array.of_list (if w = [] then [ 0.0 ] else w) in
      let probs = Dist.weights (Dist.of_weights w) in
      agree ~draws:50 ~seed ~probs "sample_weighted"
        (fun rng -> Dist.sample rng (Dist.of_weights w))
        (fun rng -> Dist.sample_weighted rng w);
      (* The same weights at the front of a longer scratch array. *)
      let scratch = Array.append w [| 5.0; 0.0 |] in
      agree ~draws:20 ~seed ~probs "sample_weighted_prefix"
        (fun rng -> Dist.sample rng (Dist.of_weights w))
        (fun rng ->
          Dist.sample_weighted_prefix rng scratch ~len:(Array.length w));
      true)

let test_sample_weighted_edge_cases () =
  let check name w =
    let probs = Dist.weights (Dist.of_weights w) in
    for seed = 0 to 19 do
      agree ~draws:200 ~seed ~probs name
        (fun rng -> Dist.sample rng (Dist.of_weights w))
        (fun rng -> Dist.sample_weighted rng w)
    done
  in
  check "n = 1" [| 2.0 |];
  check "n = 1, zero" [| 0.0 |];
  check "n = 2" [| 1.0; 3.0 |];
  check "n = 2, zero first" [| 0.0; 3.0 |];
  check "n = 2, zero last" [| 3.0; 0.0 |];
  check "all zero" [| 0.0; 0.0; 0.0; 0.0 |];
  check "zeros at both ends" [| 0.0; 1.0; 2.0; 0.0 |];
  check "infinite weight" [| 1.0; infinity; 2.0 |];
  (* Rounding tail: the cumulative value at n-2 is 1.0000000000000002,
     above the 1.0 forced at n-1. *)
  let tail = [| 0.5; 0.9; 0.1; 0.4; 0.0 |] in
  let probs = Dist.weights (Dist.of_weights tail) in
  let before_last = ref 0.0 in
  for i = 0 to Array.length probs - 2 do
    before_last := !before_last +. probs.(i)
  done;
  checkb "tail exceeds 1.0" true (!before_last > 1.0);
  check "rounding tail" tail;
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Dist.of_weights: negative or NaN weight") (fun () ->
      ignore (Dist.sample_weighted (Rng.create 1) [| 1.0; -1.0 |]));
  Alcotest.check_raises "NaN weight"
    (Invalid_argument "Dist.of_weights: negative or NaN weight") (fun () ->
      ignore (Dist.sample_weighted (Rng.create 1) [| Float.nan |]));
  Alcotest.check_raises "empty" (Invalid_argument "Dist.of_weights: empty")
    (fun () -> ignore (Dist.sample_weighted (Rng.create 1) [||]))

(* The materialized Gaussian mutation draw, as it was before the kernel
   cache existed (with the distribution built once per centre). *)
let reference_excluding ~center ~sigma ~n =
  let d = Dist.discrete_gaussian ~center ~sigma ~n in
  fun rng ->
  let rec draw attempts =
    let i = Dist.sample rng d in
    if i <> center then i
    else if attempts > 64 then
      let j = Rng.int rng (n - 1) in
      if j >= center then j + 1 else j
    else draw (attempts + 1)
  in
  draw 0

let arb_gaussian =
  Prop.(
    map
      ~show:(fun ((n, fraction), seed) ->
        Printf.sprintf "n=%d sigma=%h seed=%d" n (fraction *. float_of_int n)
          seed)
      (fun x -> x)
      (pair
         (pair (int_range 2 1500) (choose [ 0.2; 0.05; 0.5; 1e-3; 2.0 ]))
         (int_range 0 100_000)))

let test_gaussian_kernel_matches_reference () =
  Prop.check ~count:60 "cached gaussian = materialized gaussian" arb_gaussian
    (fun ((n, fraction), seed) ->
      let sigma = fraction *. float_of_int n in
      let g = Dist.gaussian ~sigma ~n in
      (* One kernel across centres, the ends included, so cached totals
         are reused as well as filled. *)
      let centres = [ 0; n - 1; n / 2; 0; n - 1; (n / 3) + 1; n / 2 ] in
      List.iteri
        (fun k center ->
          let probs = Dist.weights (Dist.discrete_gaussian ~center ~sigma ~n) in
          agree ~draws:10 ~seed:(seed + k) ~probs
            (Printf.sprintf "centre %d" center)
            (reference_excluding ~center ~sigma ~n)
            (fun rng -> Dist.sample_gaussian_excluding rng g ~center))
        centres;
      true)

let test_gaussian_kernel_edge_cases () =
  let check ~sigma ~n centres =
    let g = Dist.gaussian ~sigma ~n in
    List.iter
      (fun center ->
        let probs = Dist.weights (Dist.discrete_gaussian ~center ~sigma ~n) in
        for seed = 0 to 9 do
          agree ~draws:20 ~seed ~probs
            (Printf.sprintf "sigma %h n %d centre %d" sigma n center)
            (reference_excluding ~center ~sigma ~n)
            (fun rng -> Dist.sample_gaussian_excluding rng g ~center)
        done)
      centres
  in
  (* sigma = 1e-12: every draw lands on the centre, so each call makes 66
     draws and then takes the uniform-neighbour fallback. *)
  check ~sigma:1e-12 ~n:5 [ 0; 2; 4 ];
  check ~sigma:0.0 ~n:4 [ 0; 3 ];
  check ~sigma:0.4 ~n:2 [ 0; 1 ];
  check ~sigma:1e9 ~n:7 [ 0; 6 ];
  (* mysql's 1,147-value testId axis at the default sigma *)
  check ~sigma:(0.2 *. 1147.0) ~n:1147 [ 0; 1146; 573 ];
  let rng = Rng.create 1 in
  Alcotest.check_raises "centre outside the domain"
    (Invalid_argument "Dist.sample_gaussian_excluding: centre outside the domain")
    (fun () ->
      ignore (Dist.sample_gaussian_excluding rng (Dist.gaussian ~sigma:2.0 ~n:6) ~center:6));
  Alcotest.check_raises "NaN sigma"
    (Invalid_argument "Dist.of_weights: negative or NaN weight") (fun () ->
      ignore (Dist.sample_gaussian_excluding rng (Dist.gaussian ~sigma:Float.nan ~n:3) ~center:0));
  Alcotest.check_raises "domain too small"
    (Invalid_argument "Dist.sample_gaussian_excluding: domain too small")
    (fun () ->
      ignore (Dist.sample_gaussian_excluding rng (Dist.gaussian ~sigma:1.0 ~n:1) ~center:0));
  checkb "rng untouched by the failed calls" true (Rng.state rng = Rng.state (Rng.create 1))

let test_dist_inverse () =
  let inv = Dist.inverse [| 2.0; 4.0; 0.0 |] in
  checkf "1/2" 0.5 inv.(0);
  checkf "1/4" 0.25 inv.(1);
  checkb "zero gets largest inverse" true (inv.(2) > inv.(0))

(* --- Summary --- *)

let test_summary_basic () =
  let s = Summary.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  checkf "mean" 2.5 (Summary.mean s);
  checkf "variance" (5.0 /. 3.0) (Summary.variance s);
  checkf "min" 1.0 (Summary.min_value s);
  checkf "max" 4.0 (Summary.max_value s);
  checkf "median" 2.5 (Summary.median s);
  checkf "total" 10.0 (Summary.total s)

let test_summary_empty () =
  let s = Summary.of_list [] in
  checki "count" 0 (Summary.count s);
  checkf "mean" 0.0 (Summary.mean s);
  checkf "variance" 0.0 (Summary.variance s)

let test_summary_singleton () =
  let s = Summary.of_list [ 7.0 ] in
  checkf "mean" 7.0 (Summary.mean s);
  checkf "variance" 0.0 (Summary.variance s);
  checkf "median" 7.0 (Summary.median s)

let test_summary_quantiles () =
  let s = Summary.of_list [ 0.0; 10.0 ] in
  checkf "q0" 0.0 (Summary.quantile s 0.0);
  checkf "q1" 10.0 (Summary.quantile s 1.0);
  checkf "q0.5 interpolates" 5.0 (Summary.quantile s 0.5);
  checkf "clamped" 10.0 (Summary.quantile s 2.0)

let test_summary_online_matches_offline () =
  let rng = Rng.create 31 in
  let values = List.init 500 (fun _ -> Rng.float rng 100.0) in
  let acc = Summary.Online.create () in
  List.iter (Summary.Online.add acc) values;
  let offline = Summary.of_list values in
  checkb "mean matches" true
    (Float.abs (Summary.Online.mean acc -. Summary.mean offline) < 1e-6);
  checkb "variance matches" true
    (Float.abs (Summary.Online.variance acc -. Summary.variance offline) < 1e-6);
  let s = Summary.Online.to_summary acc in
  checkf "round-trip median" (Summary.median offline) (Summary.median s)

(* --- Bitset --- *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  checki "empty" 0 (Bitset.count b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  Bitset.set b 99;
  checki "count after sets" 3 (Bitset.count b);
  checkb "mem 63" true (Bitset.mem b 63);
  checkb "not mem 50" false (Bitset.mem b 50);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: index 100 out of range [0,100)") (fun () ->
      Bitset.set b 100)

let test_bitset_union_diff () =
  let a = Bitset.create 64 and b = Bitset.create 64 in
  Bitset.set a 1;
  Bitset.set a 2;
  Bitset.set b 2;
  Bitset.set b 3;
  checki "diff a-b" 1 (Bitset.diff_count a b);
  checki "diff b-a" 1 (Bitset.diff_count b a);
  Bitset.union_into ~dst:a b;
  checki "union count" 3 (Bitset.count a);
  checkb "b unchanged" true (Bitset.count b = 2)

let test_bitset_copy_independent () =
  let a = Bitset.create 16 in
  Bitset.set a 3;
  let b = Bitset.copy a in
  Bitset.set b 4;
  checkb "copy diverges" false (Bitset.mem a 4);
  checkb "copy kept bit" true (Bitset.mem b 3)

let test_bitset_runs_iter () =
  let a = Bitset.create 20 in
  List.iter (Bitset.set a) [ 19; 0; 7 ];
  Bitset.set_run a 8 15;
  let runs =
    Bitset.fold_runs (fun () acc first last -> (first, last) :: acc) () [] a
  in
  Alcotest.(check (list (pair int int)))
    "maximal runs, ascending" [ (0, 0); (7, 15); (19, 19) ] (List.rev runs);
  let acc = ref 0 in
  Bitset.iter (fun i -> acc := !acc + i) a;
  checki "iter sum" (26 + 92) !acc;
  let wide = Bitset.extend a 100 in
  checki "extend keeps capacity" 100 (Bitset.capacity wide);
  checki "extend keeps bits" (Bitset.count a) (Bitset.count wide);
  Bitset.set wide 50;
  checkb "extend copies" false (Bitset.equal a (Bitset.extend wide 100));
  Alcotest.check_raises "extend never shrinks"
    (Invalid_argument "Bitset.extend: capacity shrinks") (fun () ->
      ignore (Bitset.extend a 19));
  Alcotest.check_raises "run past capacity"
    (Invalid_argument "Bitset: run [18,20] out of range [0,20)") (fun () ->
      Bitset.set_run a 18 20)

(* --- qcheck properties --- *)

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"bitset count equals distinct sets"
      Gen.(list_size (int_bound 50) (int_bound 199))
      (fun indices ->
        let b = Bitset.create 200 in
        List.iter (Bitset.set b) indices;
        Bitset.count b = List.length (List.sort_uniq compare indices));
    Test.make ~name:"summary mean within min/max"
      Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.0))
      (fun values ->
        let s = Summary.of_list values in
        Summary.mean s >= Summary.min_value s -. 1e-9
        && Summary.mean s <= Summary.max_value s +. 1e-9);
    Test.make ~name:"rng int stays in bounds"
      Gen.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    Test.make ~name:"dist sample index within support"
      Gen.(pair small_int (list_size (int_range 1 20) (float_bound_inclusive 10.0)))
      (fun (seed, weights) ->
        let rng = Rng.create seed in
        let d = Dist.of_weights (Array.of_list weights) in
        let i = Dist.sample rng d in
        i >= 0 && i < List.length weights);
  ]

(* [set_run] fills whole bytes and [fold_runs]/[runs] read 32-bit
   words; both must agree with a bit-by-bit reference on every run of
   small sets whose capacities straddle byte and word boundaries, and on
   random runs of sets up to 4,096 blocks. *)
let reference_runs b =
  let runs = ref [] and start = ref (-1) in
  for i = 0 to Bitset.capacity b do
    let set = i < Bitset.capacity b && Bitset.mem b i in
    if set && !start < 0 then start := i
    else if (not set) && !start >= 0 then begin
      runs := (!start, i - 1) :: !runs;
      start := -1
    end
  done;
  List.rev !runs

let word_runs b =
  List.rev (Bitset.fold_runs (fun () acc first last -> (first, last) :: acc) () [] b)

let test_bitset_word_runs () =
  let agree what b =
    let expect = reference_runs b in
    if word_runs b <> expect || Bitset.runs b <> List.length expect then
      Alcotest.failf "%s: word scan disagrees with the bit scan" what
  in
  (* The same runs set with [set_run] and bit by bit, over what is
     already set. *)
  let both capacity runs =
    let by_bits = Bitset.create capacity and by_run = Bitset.create capacity in
    List.iter
      (fun (first, last) ->
        for i = first to last do
          Bitset.set by_bits i
        done;
        Bitset.set_run by_run first last)
      runs;
    if not (Bitset.equal by_bits by_run) then
      Alcotest.failf "set_run disagrees with set on capacity %d, runs [%s]"
        capacity
        (String.concat "; "
           (List.map (fun (f, l) -> Printf.sprintf "%d-%d" f l) runs));
    by_run
  in
  List.iter
    (fun capacity ->
      for first = 0 to capacity - 1 do
        for last = first to min (capacity - 1) (first + 70) do
          let what = Printf.sprintf "run [%d,%d] of %d" first last capacity in
          agree what (both capacity [ (first, last) ]);
          (* One gap before a neighbour run, and the last block. *)
          if last + 2 < capacity then
            agree (what ^ " and a neighbour")
              (both capacity
                 [ (first, last); (last + 2, capacity - 1); (first, first) ])
        done
      done)
    [ 0; 1; 7; 8; 9; 31; 32; 33; 63; 64; 65; 127; 128; 129 ];
  let rng = Rng.create 11 in
  for _ = 1 to 400 do
    let capacity = Rng.int rng 4097 in
    let runs =
      if capacity = 0 then []
      else
        List.init (Rng.int rng 40) (fun _ ->
            let first = Rng.int rng capacity in
            (first, min (capacity - 1) (first + Rng.int rng 300)))
    in
    agree (Printf.sprintf "random set of capacity %d" capacity)
      (both capacity runs)
  done;
  let full = both 4096 [ (0, 4095) ] in
  agree "all ones" full;
  checki "all ones: one run" 1 (Bitset.runs full)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("rng determinism", test_rng_determinism);
      ("rng seeds differ", test_rng_seeds_differ);
      ("rng copy independent", test_rng_copy_independent);
      ("rng split", test_rng_split);
      ("rng int bounds", test_rng_int_bounds);
      ("rng int_in range", test_rng_int_in);
      ("rng float bounds", test_rng_float_bounds);
      ("rng bernoulli extremes", test_rng_bernoulli_extremes);
      ("rng gaussian moments", test_rng_gaussian_moments);
      ("rng permutation", test_rng_permutation);
      ("rng pick", test_rng_pick_singleton);
      ("dist uniform", test_dist_uniform_support);
      ("dist normalization", test_dist_weighted_normalization);
      ("dist zero weights", test_dist_zero_weights_uniform);
      ("dist negative rejected", test_dist_negative_rejected);
      ("dist sampling frequencies", test_dist_sampling_frequencies);
      ("gaussian center heaviest", test_gaussian_center_heaviest);
      ("gaussian symmetric", test_gaussian_symmetric);
      ("gaussian excluding center", test_gaussian_excluding_center);
      ("gaussian excluding tiny sigma", test_gaussian_excluding_tiny_sigma);
      ("steered rng first draw", test_steered_rng);
      ("sample_weighted matches reference", test_sample_weighted_matches_reference);
      ("sample_weighted edge cases", test_sample_weighted_edge_cases);
      ("gaussian kernel matches reference", test_gaussian_kernel_matches_reference);
      ("gaussian kernel edge cases", test_gaussian_kernel_edge_cases);
      ("dist inverse", test_dist_inverse);
      ("summary basic", test_summary_basic);
      ("summary empty", test_summary_empty);
      ("summary singleton", test_summary_singleton);
      ("summary quantiles", test_summary_quantiles);
      ("summary online matches offline", test_summary_online_matches_offline);
      ("bitset basic", test_bitset_basic);
      ("bitset union/diff", test_bitset_union_diff);
      ("bitset copy independent", test_bitset_copy_independent);
      ("bitset runs/extend/iter", test_bitset_runs_iter);
      ("bitset word runs match the bit scan", test_bitset_word_runs);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
