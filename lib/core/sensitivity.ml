(* Each axis keeps its last [window] fitness samples in a ring: [head] is
   the newest, and [len] of them are filled. Recording overwrites the
   oldest in place. *)
type axis_state = { ring : float array; mutable head : int; mutable len : int }

(* [probs] caches {!probabilities}: it is recomputed on the first read
   after a [record] ([stale]), and handed out as is. *)
type t = {
  window : int;
  axes : axis_state array;
  prior : float;
  probs : float array;
  mutable stale : bool;
}

let create ?(window = 20) ~dims () =
  if dims < 1 then invalid_arg "Sensitivity.create: dims < 1";
  if window < 1 then invalid_arg "Sensitivity.create: window < 1";
  {
    window;
    axes =
      Array.init dims (fun _ ->
          { ring = Array.make window 0.0; head = window - 1; len = 0 });
    prior = 1.0;
    probs = Array.make dims 0.0;
    stale = true;
  }

let record t ~axis ~fitness =
  let state = t.axes.(axis) in
  let head = if state.head = t.window - 1 then 0 else state.head + 1 in
  state.ring.(head) <- fitness;
  state.head <- head;
  if state.len < t.window then state.len <- state.len + 1;
  t.stale <- true

(* The k-th newest sample, k < len. *)
let[@inline] sample t state k =
  let i = state.head - k in
  state.ring.(if i < 0 then i + t.window else i)

(* An axis with no samples yet reports an optimistic prior, so the search
   starts out direction-agnostic rather than locked on the first axis that
   happened to pay off. The sum runs newest first. *)
let[@inline] value t i =
  let state = t.axes.(i) in
  if state.len = 0 then t.prior
  else begin
    let acc = ref 0.0 in
    for k = 0 to state.len - 1 do
      acc := !acc +. sample t state k
    done;
    !acc
  end

let fill_values t raw =
  for i = 0 to Array.length raw - 1 do
    raw.(i) <- value t i
  done

let values t =
  let raw = Array.make (Array.length t.axes) 0.0 in
  fill_values t raw;
  raw

let probabilities t =
  let p = t.probs in
  if t.stale then begin
    fill_values t p;
    let n = Array.length p in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. p.(i)
    done;
    let total = !total in
    let uniform = 1.0 /. float_of_int n in
    if total <= 0.0 then Array.fill p 0 n uniform
    else begin
      (* 10% of the mass stays uniform: no axis is ever fully abandoned. *)
      let epsilon = 0.10 in
      for i = 0 to n - 1 do
        p.(i) <- (epsilon *. uniform) +. ((1.0 -. epsilon) *. p.(i) /. total)
      done
    end;
    t.stale <- false
  end;
  p

let dims t = Array.length t.axes

(* An axis is "critical" — worth pinning under mutation masking — when its
   choice probability strictly exceeds the uniform share: its mutations
   have been paying off above baseline, so it is what established the
   parent's position. The probabilities sum to 1, so at least one axis
   always stays at or below uniform and the mask can never pin
   everything (the mutator additionally refuses an all-pinned mask). *)
let mask t =
  let p = probabilities t in
  let uniform = 1.0 /. float_of_int (Array.length p) in
  Array.map (fun v -> v > uniform) p

let dump t =
  Array.map
    (fun state -> List.init state.len (fun k -> sample t state k))
    t.axes

let load ?(window = 20) ~dims samples =
  if dims < 1 then Error "Sensitivity.load: dims < 1"
  else if window < 1 then Error "Sensitivity.load: window < 1"
  else if Array.length samples <> dims then
    Error
      (Printf.sprintf "Sensitivity.load: %d axes of samples for %d dimensions"
         (Array.length samples) dims)
  else if Array.exists (fun s -> List.length s > window) samples then
    Error "Sensitivity.load: more samples than the window admits"
  else if Array.exists (List.exists Float.is_nan) samples then
    (* A live session never records one, and it would reach the axis
       draw's weights. *)
    Error "Sensitivity.load: NaN sample"
  else begin
    let t = create ~window ~dims () in
    (* Oldest first, so the newest ends at [head]. *)
    Array.iteri
      (fun axis s -> List.iter (fun fitness -> record t ~axis ~fitness) (List.rev s))
      samples;
    Ok t
  end
