type weighted = { cumulative : float array; probs : float array }

let[@inline] check_weight x =
  if x < 0.0 || Float.is_nan x then
    invalid_arg "Dist.of_weights: negative or NaN weight"

let of_weights w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Dist.of_weights: empty";
  Array.iter check_weight w;
  let total = Array.fold_left ( +. ) 0.0 w in
  let probs =
    if total <= 0.0 then Array.make n (1.0 /. float_of_int n)
    else Array.map (fun x -> x /. total) w
  in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. probs.(i);
    cumulative.(i) <- !acc
  done;
  cumulative.(n - 1) <- 1.0;
  { cumulative; probs }

let weights d = Array.copy d.probs
let support d = Array.length d.probs

let sample rng d =
  let u = Rng.float rng 1.0 in
  (* Binary search for the first cumulative value >= u. *)
  let n = Array.length d.cumulative in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if d.cumulative.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* The in-place samplers below replay [sample (of_weights w)] without
   materializing it. The running sum [acc] adds the same normalized
   probabilities in the same order, so every partial sum is the same
   float as [cumulative.(i)]. With a finite total those are
   non-decreasing up to [n-2], and the last is forced to 1.0 > u, so
   "cumulative >= u" is false then true along the array: the first index
   a linear scan finds is the one the binary search converges to, even
   when rounding pushes [n-2] past 1.0. An infinite total (a weight of
   [infinity], or an overflowing sum) makes some partial sums NaN, which
   breaks that order, so it takes the materialized path. *)

let sample_weighted_prefix rng w ~len:n =
  if n <= 0 || n > Array.length w then
    invalid_arg "Dist.sample_weighted_prefix: bad length";
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    check_weight w.(i);
    total := !total +. w.(i)
  done;
  let total = !total in
  if not (Float.is_finite total) then sample rng (of_weights (Array.sub w 0 n))
  else begin
    let u = Rng.float rng 1.0 in
    let uniform = total <= 0.0 in
    let i = ref 0
    and acc = ref (if uniform then 1.0 /. float_of_int n else w.(0) /. total) in
    while !i < n - 1 && !acc < u do
      incr i;
      acc := !acc +. (if uniform then 1.0 /. float_of_int n else w.(!i) /. total)
    done;
    !i
  end

let sample_weighted rng w =
  if Array.length w = 0 then invalid_arg "Dist.of_weights: empty";
  sample_weighted_prefix rng w ~len:(Array.length w)

let uniform n = of_weights (Array.make n 1.0)

let gaussian_weight ~sigma k =
  let d = float_of_int k /. sigma in
  exp (-0.5 *. d *. d)

let discrete_gaussian ~center ~sigma ~n =
  if n <= 0 then invalid_arg "Dist.discrete_gaussian: empty domain";
  if sigma <= 0.0 then
    of_weights (Array.init n (fun i -> if i = center then 1.0 else 0.0))
  else of_weights (Array.init n (fun i -> gaussian_weight ~sigma (i - center)))

let sample_gaussian_index rng ~center ~sigma ~n =
  sample rng (discrete_gaussian ~center ~sigma ~n)

type gaussian = {
  kernel : float array;  (** weight at distance k from the centre *)
  totals : float array;
      (** left-to-right weight sum for each centre; 0.0 until first used
          (a filled total is at least the centre's own weight, 1.0) *)
}

let gaussian ~sigma ~n =
  if n <= 0 then invalid_arg "Dist.discrete_gaussian: empty domain";
  (* [gaussian_weight] is symmetric bit for bit: negating an integer, a
     quotient or a product only flips the sign bit, and [d *. d] drops
     it. So the weight at distance k equals the weight the materialized
     path computes at both [center - k] and [center + k]. *)
  let kernel =
    if sigma <= 0.0 then Array.init n (fun k -> if k = 0 then 1.0 else 0.0)
    else Array.init n (gaussian_weight ~sigma)
  in
  Array.iter check_weight kernel;
  { kernel; totals = Array.make n 0.0 }

let[@inline] gaussian_total g center =
  let t = g.totals.(center) in
  if t > 0.0 then t
  else begin
    let acc = ref 0.0 in
    for i = 0 to Array.length g.kernel - 1 do
      acc := !acc +. g.kernel.(abs (i - center))
    done;
    g.totals.(center) <- !acc;
    !acc
  end

(* One draw from the Gaussian around an in-range [center]: the same scan
   as [sample_weighted], reading weights from the kernel by distance. *)
let gaussian_draw rng g center =
  let n = Array.length g.kernel in
  let total = gaussian_total g center in
  let u = Rng.float rng 1.0 in
  let i = ref 0 and acc = ref (g.kernel.(center) /. total) in
  while !i < n - 1 && !acc < u do
    incr i;
    acc := !acc +. (g.kernel.(abs (!i - center)) /. total)
  done;
  !i

let sample_gaussian_excluding rng g ~center =
  let n = Array.length g.kernel in
  if n < 2 then
    invalid_arg "Dist.sample_gaussian_excluding: domain too small";
  if center < 0 || center >= n then
    invalid_arg "Dist.sample_gaussian_excluding: centre outside the domain";
  let result = ref (-1) and attempts = ref 0 in
  while !result < 0 do
    let i = gaussian_draw rng g center in
    if i <> center then result := i
    else if !attempts > 64 then begin
      (* Pathologically narrow sigma: fall back to a uniform neighbour. *)
      let j = Rng.int rng (n - 1) in
      result := if j >= center then j + 1 else j
    end
    else incr attempts
  done;
  !result

let inverse w =
  let positive = Array.to_list w |> List.filter (fun x -> x > 0.0) in
  let max_inverse =
    match positive with
    | [] -> 1.0
    | _ -> List.fold_left (fun acc x -> Float.max acc (1.0 /. x)) 0.0 positive
  in
  Array.map (fun x -> if x > 0.0 then 1.0 /. x else max_inverse *. 2.0) w
