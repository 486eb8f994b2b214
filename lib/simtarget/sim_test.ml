type t = {
  id : int;
  name : string;
  group : string;
  trace : int array;
  duration_ms : float;
}

let make ~id ~name ~group ~trace ~duration_ms =
  { id; name; group; trace; duration_ms }

let run_end (trace : int array) i =
  let site = trace.(i) and j = ref (i + 1) in
  while !j < Array.length trace && trace.(!j) = site do
    incr j
  done;
  !j

(* Both walks step over a run of one call site at once, so they compare
   one function name per run rather than one per call. *)
let rec count_from (trace : int array) site_func func i acc =
  if i >= Array.length trace then acc
  else
    let stop = run_end trace i in
    count_from trace site_func func stop
      (if String.equal (site_func trace.(i)) func then acc + stop - i else acc)

let calls_to t ~site_func func = count_from t.trace site_func func 0 0

let rec find_from (trace : int array) site_func func i remaining =
  if i >= Array.length trace then None
  else
    let stop = run_end trace i in
    if not (String.equal (site_func trace.(i)) func) then
      find_from trace site_func func stop remaining
    else if remaining <= stop - i then Some (i + remaining - 1, trace.(i))
    else find_from trace site_func func stop (remaining - (stop - i))

let nth_call t ~site_func func ~n =
  if n <= 0 then None else find_from t.trace site_func func 0 n

let pp ppf t =
  Format.fprintf ppf "test#%d %s (%s, %d calls, %.1fms)" t.id t.name t.group
    (Array.length t.trace) t.duration_ms
