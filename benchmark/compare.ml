(* The [compare] command: two sets of runs, each a file of
   [workload<TAB>metric<TAB>value<TAB>unit] lines (the stdout of one or
   more [run]s, concatenated; other lines are ignored). Per workload and
   metric it prints both medians, the quartiles once a side has four
   values, and for bounded metrics a verdict. Exits 1 when any verdict is
   [worse]. *)

(* The seed offset from a run's provenance line, which comes before its
   metric lines. *)
let seed_of_header line =
  if not (String.starts_with ~prefix:"# {" line) then None
  else
    List.find_map
      (fun field ->
        match String.split_on_char ':' field with
        | [ k; v ] when String.trim k = "\"seed_offset\"" ->
            int_of_string_opt (String.trim v)
        | _ -> None)
      (String.split_on_char ',' line)

(* Per (workload, metric), the values in file order, each with the seed
   offset of the run it came from. *)
let read file =
  let table = Hashtbl.create 64 and order = ref [] and seed = ref None in
  In_channel.with_open_text file (fun ic ->
      In_channel.fold_lines
        (fun () line ->
          match String.split_on_char '\t' line with
          | [ w; m; v; _unit ] -> (
              match float_of_string_opt v with
              | Some x ->
                  let key = (w, m) in
                  if not (Hashtbl.mem table key) then order := key :: !order;
                  Hashtbl.replace table key
                    ((!seed, x)
                    :: Option.value (Hashtbl.find_opt table key) ~default:[])
              | None -> ())
          | _ -> Option.iter (fun s -> seed := Some s) (seed_of_header line))
        () ic);
  Hashtbl.filter_map_inplace (fun _ xs -> Some (List.rev xs)) table;
  (table, List.rev !order)

let values = List.map snd

(* [within]: the medians differ by at most the bound. [unresolved]: a
   side's run-to-run spread is wider than the bound, so a difference that
   size cannot be told from noise, unless every run of B beats every run
   of A. An [Exact] metric pairs runs by seed offset: [worse] if any pair
   differs, [unresolved] if no seed offset ran on both sides. *)
let verdict (m : Registry.metric) a b =
  let improves y x =
    match m.Registry.better with
    | Registry.Lower -> y < x
    | Registry.Higher -> y > x
  in
  match m.Registry.bound with
  | Registry.Unbounded -> "-"
  | Registry.Exact -> (
      let pairs =
        List.concat_map
          (fun (s, x) ->
            match s with
            | None -> []
            | Some _ ->
                List.filter_map
                  (fun (s', y) -> if s' = s then Some (x, y) else None)
                  b)
          a
      in
      match pairs with
      | [] -> "unresolved"
      | _ when List.for_all (fun (x, y) -> x = y) pairs -> "within"
      | _ -> "worse")
  | Registry.Share { share; floor } ->
      let xa = values a and xb = values b in
      let ma = Stat.median xa and mb = Stat.median xb in
      let allowed = Float.max (share *. Float.abs ma) floor in
      let all_better =
        List.for_all (fun y -> List.for_all (fun x -> improves y x) xa) xb
      in
      if Stat.spread xa > allowed || Stat.spread xb > allowed then
        if all_better then "better" else "unresolved"
      else if Float.abs (mb -. ma) <= allowed then "within"
      else if improves mb ma then "better"
      else "worse"

let describe xs =
  let med = Stat.median xs in
  if List.length xs >= 4 then
    let q1, _, q3 = Stat.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3
  else Printf.sprintf "%.6g" med

let run file_a file_b =
  let ta, order_a = read file_a and tb, order_b = read file_b in
  let keys =
    order_a @ List.filter (fun k -> not (List.mem k order_a)) order_b
  in
  Printf.printf "%-18s %-30s %-36s %-36s %8s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "verdict";
  let worse = ref 0 in
  List.iter
    (fun ((w, name) as key) ->
      match (Hashtbl.find_opt ta key, Hashtbl.find_opt tb key) with
      | Some a, Some b ->
          let ma = Stat.median (values a) and mb = Stat.median (values b) in
          let v =
            match Registry.find_metric name with
            | Some m -> verdict m a b
            | None -> "-"
          in
          if v = "worse" then incr worse;
          Printf.printf "%-18s %-30s %-36s %-36s %+7.1f%%  %s\n" w name
            (describe (values a))
            (describe (values b))
            (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. Float.abs ma)
            v
      | _ -> Printf.printf "%-18s %-30s only in one file\n" w name)
    keys;
  if !worse > 0 then 1 else 0
