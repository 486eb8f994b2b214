(* Tests for afex_faultspace: axes, points, subspaces, density, shuffles,
   scenarios. *)

module Axis = Afex_faultspace.Axis
module Point = Afex_faultspace.Point
module Subspace = Afex_faultspace.Subspace
module Space = Afex_faultspace.Space
module Value = Afex_faultspace.Value
module Density = Afex_faultspace.Density
module Shuffle = Afex_faultspace.Shuffle
module Scenario = Afex_faultspace.Scenario
module Rng = Afex_stats.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* --- Axis --- *)

let test_axis_symbols () =
  let a = Axis.symbols "fn" [ "open"; "close"; "read" ] in
  checki "cardinality" 3 (Axis.cardinality a);
  Alcotest.(check string) "value 1" "close" (Value.as_sym (Axis.value a 1));
  checki "index of read" 2 (Option.get (Axis.index_of_value a (Value.Sym "read")));
  checkb "unknown symbol" true (Axis.index_of_value a (Value.Sym "writev") = None)

let test_axis_range () =
  let a = Axis.range "call" ~lo:5 ~hi:9 in
  checki "cardinality" 5 (Axis.cardinality a);
  checki "value 0" 5 (Value.as_int (Axis.value a 0));
  checki "value 4" 9 (Value.as_int (Axis.value a 4));
  checki "index of 7" 2 (Option.get (Axis.index_of_value a (Value.Int 7)));
  checkb "out of range value" true (Axis.index_of_value a (Value.Int 10) = None)

let test_axis_bad_inputs () =
  Alcotest.check_raises "empty symbols" (Invalid_argument "Axis.make: empty symbol set")
    (fun () -> ignore (Axis.symbols "x" []));
  Alcotest.check_raises "inverted range" (Invalid_argument "Axis.make: inverted range")
    (fun () -> ignore (Axis.range "x" ~lo:3 ~hi:2))

let test_axis_value_out_of_bounds () =
  let a = Axis.range "x" ~lo:0 ~hi:2 in
  checkb "negative raises" true
    (try ignore (Axis.value a (-1)); false with Invalid_argument _ -> true);
  checkb "past end raises" true
    (try ignore (Axis.value a 3); false with Invalid_argument _ -> true)

let test_axis_subinterval_cardinality () =
  (* <1,4>: intervals over a 4-element range = 4*5/2 = 10 *)
  let a = Axis.subinterval "w" ~lo:1 ~hi:4 in
  checki "m(m+1)/2" 10 (Axis.cardinality a)

let test_axis_subinterval_roundtrip () =
  let a = Axis.subinterval "w" ~lo:2 ~hi:6 in
  for i = 0 to Axis.cardinality a - 1 do
    match Axis.value a i with
    | Value.Pair (lo, hi) ->
        checkb "valid pair" true (lo >= 2 && hi <= 6 && lo <= hi);
        checki "index round-trip" i
          (Option.get (Axis.index_of_value a (Value.Pair (lo, hi))))
    | Value.Sym _ | Value.Int _ -> Alcotest.fail "expected pair"
  done

let test_axis_subinterval_order_lexicographic () =
  let a = Axis.subinterval "w" ~lo:0 ~hi:2 in
  let values = List.init (Axis.cardinality a) (Axis.value a) in
  Alcotest.(check (list string)) "lexicographic order"
    [ "<0,0>"; "<0,1>"; "<0,2>"; "<1,1>"; "<1,2>"; "<2,2>" ]
    (List.map Value.to_string values)

(* --- Point --- *)

let test_point_accessors () =
  let p = Point.of_list [ 1; 2; 3 ] in
  checki "dim" 3 (Point.dim p);
  checki "get" 2 (Point.get p 1);
  let q = Point.with_component p 1 9 in
  checki "modified copy" 9 (Point.get q 1);
  checki "original untouched" 2 (Point.get p 1)

let test_point_negative_rejected () =
  checkb "negative component raises" true
    (try ignore (Point.of_list [ 1; -1 ]); false with Invalid_argument _ -> true)

let test_point_manhattan () =
  let a = Point.of_list [ 0; 0; 0 ] and b = Point.of_list [ 1; 2; 3 ] in
  checki "distance" 6 (Point.manhattan a b);
  checki "self distance" 0 (Point.manhattan a a);
  checki "chebyshev" 3 (Point.chebyshev a b)

let test_point_key_injective () =
  let a = Point.of_list [ 1; 23 ] and b = Point.of_list [ 12; 3 ] in
  checkb "keys differ" true (Point.key a <> Point.key b)

(* --- Subspace --- *)

let small () =
  Subspace.make
    [ Axis.range "x" ~lo:0 ~hi:3; Axis.symbols "f" [ "a"; "b"; "c" ] ]

let test_subspace_cardinality () = checki "4*3" 12 (Subspace.cardinality (small ()))

let test_subspace_enumerate_complete () =
  let sub = small () in
  let points = List.of_seq (Subspace.enumerate sub) in
  checki "enumerates all" 12 (List.length points);
  let keys = List.sort_uniq compare (List.map Point.key points) in
  checki "all distinct" 12 (List.length keys);
  checkb "all members" true (List.for_all (Subspace.mem sub) points)

let test_subspace_holes_excluded () =
  let hole p = Point.get p 0 = 1 in
  let sub =
    Subspace.make ~hole [ Axis.range "x" ~lo:0 ~hi:3; Axis.symbols "f" [ "a"; "b"; "c" ] ]
  in
  let points = List.of_seq (Subspace.enumerate sub) in
  checki "holes skipped" 9 (List.length points);
  checkb "hole not member" false (Subspace.mem sub (Point.of_list [ 1; 0 ]));
  let rng = Rng.create 17 in
  for _ = 1 to 200 do
    checkb "random avoids holes" false (Point.get (Subspace.random_point rng sub) 0 = 1)
  done

let test_subspace_values_roundtrip () =
  let sub = small () in
  let p = Point.of_list [ 2; 1 ] in
  let bindings = Subspace.values sub p in
  Alcotest.(check (list (pair string string)))
    "bindings"
    [ ("x", "2"); ("f", "b") ]
    (List.map (fun (n, v) -> (n, Value.to_string v)) bindings);
  checkb "inverse" true (Point.equal p (Option.get (Subspace.point_of_values sub bindings)))

let test_subspace_point_of_values_unknown () =
  let sub = small () in
  checkb "unknown axis" true
    (Subspace.point_of_values sub [ ("zz", Value.Int 0) ] = None);
  checkb "missing axis" true (Subspace.point_of_values sub [ ("x", Value.Int 0) ] = None);
  checkb "bad value" true
    (Subspace.point_of_values sub [ ("x", Value.Int 99); ("f", Value.Sym "a") ] = None)

let test_subspace_vicinity_matches_bruteforce () =
  let sub = small () in
  let center = Point.of_list [ 1; 1 ] in
  let d = 2 in
  let expected =
    List.filter (fun p -> Point.manhattan center p <= d)
      (List.of_seq (Subspace.enumerate sub))
  in
  let got = List.of_seq (Subspace.vicinity sub center ~d) in
  checki "same size" (List.length expected) (List.length got);
  let key_set l = List.sort_uniq compare (List.map Point.key l) in
  Alcotest.(check (list string)) "same points" (key_set expected) (key_set got)

let test_subspace_axis_index () =
  let sub = small () in
  checki "x at 0" 0 (Option.get (Subspace.axis_index sub "x"));
  checki "f at 1" 1 (Option.get (Subspace.axis_index sub "f"));
  checkb "unknown" true (Subspace.axis_index sub "nope" = None)

(* --- Space (unions) --- *)

let union () =
  Space.of_subspaces
    [
      small ();
      Subspace.make ~label:"io" [ Axis.range "call" ~lo:1 ~hi:5 ];
    ]

let test_space_cardinality () = checki "12+5" 17 (Space.cardinality (union ()))

let test_space_enumerate () =
  let sp = union () in
  let all = List.of_seq (Space.enumerate sp) in
  checki "all points" 17 (List.length all);
  checkb "all members" true (List.for_all (Space.mem sp) all)

let test_space_random_member () =
  let sp = union () in
  let rng = Rng.create 19 in
  for _ = 1 to 100 do
    checkb "random located valid" true (Space.mem sp (Space.random rng sp))
  done

let test_space_single_rejects_union () =
  checkb "single on union raises" true
    (try ignore (Space.single (union ())); false with Invalid_argument _ -> true)

(* --- Exhausted-space support ---

   [Subspace.skip_random_points] must leave the generator exactly where
   the same number of [random_point] calls would. The 2^61+1-wide axis
   makes [Rng.int] reject about half of its raw draws, so a skip that
   assumed one raw draw per axis would drift. *)

let skip_spaces () =
  [
    ("apache", Afex_simtarget.Apache.space ());
    ("mysql", Afex_simtarget.Mysql.space ());
    ("small", small ());
    ( "rejecting",
      Subspace.make
        [
          Axis.range "big" ~lo:0 ~hi:(1 lsl 61);
          Axis.subinterval "span" ~lo:0 ~hi:6;
          Axis.symbols "f" [ "a"; "b"; "c" ];
        ] );
  ]

let test_skip_matches_random_points () =
  List.iter
    (fun (name, sub) ->
      checkb (name ^ " is hole-free") true (Subspace.hole_free sub);
      List.iter
        (fun n ->
          let drawn = Rng.create (1000 + n) and skipped = Rng.create (1000 + n) in
          for _ = 1 to n do
            ignore (Subspace.random_point drawn sub)
          done;
          Subspace.skip_random_points skipped sub n;
          let label = Printf.sprintf "%s: state after %d draws" name n in
          Alcotest.(check int64) label (Rng.state drawn) (Rng.state skipped);
          checkb (label ^ ", next point") true
            (Point.equal (Subspace.random_point drawn sub)
               (Subspace.random_point skipped sub)))
        [ 0; 1; 2; 7; 201; 1000 ])
    (skip_spaces ())

let test_skip_refuses_holes () =
  let axes = [ Axis.range "x" ~lo:0 ~hi:3 ] in
  let never = Subspace.make ~hole:(fun _ -> false) axes in
  checkb "an explicit predicate is not hole-free" false (Subspace.hole_free never);
  checkb "skip refuses a space with holes" true
    (match Subspace.skip_random_points (Rng.create 3) never 1 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* replsim n=12 over 300 rounds: 4 arms used to wrap to a negative
   cardinality and 5 arms to a wrong positive one. *)
let test_cardinality_saturates () =
  let module Replsim = Afex_simtarget.Replsim in
  let module Replfault = Afex_injector.Replfault in
  let cluster = Replsim.make ~n:12 ~rounds:300 ~seed:11 () in
  let product sub =
    Array.fold_left
      (fun acc a -> acc *. float_of_int (Axis.cardinality a))
      1.0 (Subspace.axes sub)
  in
  let wide =
    List.map
      (fun arms ->
        let sub = Replfault.multi_space ~arms cluster in
        checkb (Printf.sprintf "%d arms overflow" arms) true
          (product sub > float_of_int max_int);
        checki (Printf.sprintf "%d arms saturate" arms) max_int
          (Subspace.cardinality sub);
        sub)
      [ 4; 5 ]
  in
  let two = Replfault.multi_space ~arms:2 cluster in
  checkf "2 arms stay exact" (product two) (float_of_int (Subspace.cardinality two));
  let sp = Space.of_subspaces (two :: wide) in
  checki "the union saturates" max_int (Space.cardinality sp);
  checki "a small union still adds" (12 + Subspace.cardinality two)
    (Space.cardinality (Space.of_subspaces [ small (); two ]));
  let rng = Rng.create 23 in
  for _ = 1 to 50 do
    checkb "random member of a saturated union" true
      (Space.mem sp (Space.random rng sp))
  done

(* --- Density (the paper's Fig. 1 / §2 example) --- *)

(* A 5x9 grid shaped like the paper's example: a vertical stripe of impact
   at column 3. Walking vertically from a point in the stripe encounters
   only impact, so the vertical relative density must exceed 1. *)
let stripe_sub = Subspace.make [ Axis.range "col" ~lo:0 ~hi:8; Axis.range "row" ~lo:0 ~hi:4 ]
let stripe_impact p = if Point.get p 0 = 3 then 1.0 else 0.0

let test_density_vertical_stripe () =
  let phi = Point.of_list [ 3; 2 ] in
  (* Along the row axis (axis 1) every fault shares col=3 -> impact 1. *)
  let rho_vertical = Density.relative_linear_density stripe_sub stripe_impact phi ~axis:1 in
  let rho_horizontal = Density.relative_linear_density stripe_sub stripe_impact phi ~axis:0 in
  checkf "vertical density = 1/avg = 9" 9.0 rho_vertical;
  checkf "horizontal density = (1/9)/(1/9) = 1" 1.0 rho_horizontal;
  checkb "vertical beats horizontal" true (rho_vertical > rho_horizontal)

let test_density_in_vicinity () =
  let phi = Point.of_list [ 3; 2 ] in
  let rho =
    Density.relative_linear_density_in_vicinity stripe_sub stripe_impact phi ~axis:1 ~d:2
  in
  checkb "vicinity density > 1" true (rho > 1.0)

let test_density_zero_space () =
  let phi = Point.of_list [ 0; 0 ] in
  checkf "zero impact -> 0 density" 0.0
    (Density.relative_linear_density stripe_sub (fun _ -> 0.0) phi ~axis:0)

let test_density_structured_axes () =
  let samples = [ Point.of_list [ 3; 0 ]; Point.of_list [ 3; 4 ] ] in
  match Density.structured_axes stripe_sub stripe_impact ~samples with
  | (best_axis, best) :: (_, second) :: _ ->
      checki "row axis most structured" 1 best_axis;
      checkb "sorted descending" true (best >= second)
  | _ -> Alcotest.fail "expected two axes"

(* --- Shuffle --- *)

let test_shuffle_roundtrip () =
  let sub = small () in
  let sh = Shuffle.shuffle_axes (Rng.create 5) sub ~axes:[ 0; 1 ] in
  Seq.iter
    (fun p ->
      let q = Shuffle.to_target sh p in
      checkb "target in space" true (Subspace.mem sub q);
      checkb "round-trip" true (Point.equal p (Shuffle.of_target sh q)))
    (Subspace.enumerate sub)

let test_shuffle_is_bijection () =
  let sub = small () in
  let sh = Shuffle.shuffle_axis (Rng.create 6) sub ~axis:0 in
  let images =
    List.sort_uniq compare
      (List.map (fun p -> Point.key (Shuffle.to_target sh p))
         (List.of_seq (Subspace.enumerate sub)))
  in
  checki "bijective over the space" (Subspace.cardinality sub) (List.length images)

let test_shuffle_identity () =
  let sub = small () in
  let sh = Shuffle.identity sub in
  let p = Point.of_list [ 2; 2 ] in
  checkb "identity maps to self" true (Point.equal p (Shuffle.to_target sh p));
  Alcotest.(check (list int)) "no shuffled axes" [] (Shuffle.shuffled_axes sh)

let test_shuffle_axes_listed () =
  let sub = small () in
  let sh = Shuffle.shuffle_axis (Rng.create 7) sub ~axis:1 in
  Alcotest.(check (list int)) "axis recorded" [ 1 ] (Shuffle.shuffled_axes sh)

(* --- Scenario --- *)

let test_scenario_roundtrip_string () =
  let s = [ ("function", Value.Sym "malloc"); ("callNumber", Value.Int 23) ] in
  let str = Scenario.to_string s in
  Alcotest.(check string) "fig5 format" "function malloc callNumber 23" str;
  match Scenario.of_string str with
  | Ok s' ->
      Alcotest.(check (list (pair string string)))
        "parsed back"
        (List.map (fun (n, v) -> (n, Value.to_string v)) s)
        (List.map (fun (n, v) -> (n, Value.to_string v)) s')
  | Error e -> Alcotest.fail e

let test_scenario_parse_pair () =
  match Scenario.of_string "window <3,7>" with
  | Ok [ ("window", Value.Pair (3, 7)) ] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e

let test_scenario_odd_tokens_error () =
  checkb "dangling name" true (Result.is_error (Scenario.of_string "function"))

let test_scenario_of_point () =
  let sub = small () in
  let p = Point.of_list [ 3; 0 ] in
  let s = Scenario.of_point sub p in
  checkb "to_point inverse" true (Point.equal p (Option.get (Scenario.to_point sub s)))

(* --- qcheck properties --- *)

let qcheck_tests =
  let open QCheck2 in
  let point_pair_gen =
    Gen.(
      list_repeat 4 (int_bound 9) >>= fun a ->
      list_repeat 4 (int_bound 9) >>= fun b ->
      return (Point.of_list a, Point.of_list b))
  in
  let triple_gen =
    Gen.(
      list_repeat 3 (int_bound 9) >>= fun a ->
      list_repeat 3 (int_bound 9) >>= fun b ->
      list_repeat 3 (int_bound 9) >>= fun c ->
      return (Point.of_list a, Point.of_list b, Point.of_list c))
  in
  [
    Test.make ~name:"manhattan symmetry" point_pair_gen (fun (a, b) ->
        Point.manhattan a b = Point.manhattan b a);
    Test.make ~name:"manhattan triangle inequality" triple_gen (fun (a, b, c) ->
        Point.manhattan a c <= Point.manhattan a b + Point.manhattan b c);
    Test.make ~name:"manhattan zero iff equal" point_pair_gen (fun (a, b) ->
        Point.manhattan a b = 0 = Point.equal a b);
    Test.make ~name:"chebyshev <= manhattan" point_pair_gen (fun (a, b) ->
        Point.chebyshev a b <= Point.manhattan a b);
    Test.make ~name:"subinterval index bijection"
      Gen.(pair (int_range 0 5) (int_range 6 12))
      (fun (lo, hi) ->
        let a = Axis.subinterval "w" ~lo ~hi in
        let ok = ref true in
        for i = 0 to Axis.cardinality a - 1 do
          if Axis.index_of_value a (Axis.value a i) <> Some i then ok := false
        done;
        !ok);
  ]

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("axis symbols", test_axis_symbols);
      ("axis range", test_axis_range);
      ("axis bad inputs", test_axis_bad_inputs);
      ("axis value bounds", test_axis_value_out_of_bounds);
      ("axis subinterval cardinality", test_axis_subinterval_cardinality);
      ("axis subinterval roundtrip", test_axis_subinterval_roundtrip);
      ("axis subinterval order", test_axis_subinterval_order_lexicographic);
      ("point accessors", test_point_accessors);
      ("point negative rejected", test_point_negative_rejected);
      ("point manhattan", test_point_manhattan);
      ("point key injective", test_point_key_injective);
      ("subspace cardinality", test_subspace_cardinality);
      ("subspace enumerate complete", test_subspace_enumerate_complete);
      ("subspace holes excluded", test_subspace_holes_excluded);
      ("subspace values roundtrip", test_subspace_values_roundtrip);
      ("subspace point_of_values unknown", test_subspace_point_of_values_unknown);
      ("subspace vicinity = bruteforce", test_subspace_vicinity_matches_bruteforce);
      ("subspace axis_index", test_subspace_axis_index);
      ("space cardinality", test_space_cardinality);
      ("space enumerate", test_space_enumerate);
      ("space random member", test_space_random_member);
      ("space single rejects union", test_space_single_rejects_union);
      ("density vertical stripe (paper example)", test_density_vertical_stripe);
      ("density in vicinity", test_density_in_vicinity);
      ("density zero space", test_density_zero_space);
      ("density structured axes", test_density_structured_axes);
      ("shuffle roundtrip", test_shuffle_roundtrip);
      ("shuffle bijection", test_shuffle_is_bijection);
      ("shuffle identity", test_shuffle_identity);
      ("shuffle axes listed", test_shuffle_axes_listed);
      ("scenario roundtrip", test_scenario_roundtrip_string);
      ("scenario pair parse", test_scenario_parse_pair);
      ("scenario odd tokens", test_scenario_odd_tokens_error);
      ("scenario of_point", test_scenario_of_point);
      ("subspace skip matches random points", test_skip_matches_random_points);
      ("subspace skip refuses holes", test_skip_refuses_holes);
      ("cardinality saturates", test_cardinality_saturates);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
