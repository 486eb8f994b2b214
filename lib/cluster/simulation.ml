type config = {
  nodes : int;
  iterations : int;
  dispatch_ms : float;
  explorer_generation_ms : float;
}

let default_config =
  { nodes = 4; iterations = 1000; dispatch_ms = 2.0; explorer_generation_ms = 0.12 }

type result = {
  nodes : int;
  tests_executed : int;
  wall_ms : float;
  throughput_per_s : float;
  busy_ms : float array;
  failed : int;
  crashed : int;
  utilization : float;
}

(* Pending completion events, ordered by time. The cluster is small (tens
   of nodes), so a sorted list is ample. *)
module Events = struct
  type 'a t = { mutable events : (float * 'a) list }

  let create () = { events = [] }

  let push t time payload =
    let rec insert = function
      | [] -> [ (time, payload) ]
      | (t0, _) :: _ as rest when time < t0 -> (time, payload) :: rest
      | e :: rest -> e :: insert rest
    in
    t.events <- insert t.events

  let pop t =
    match t.events with
    | [] -> None
    | e :: rest ->
        t.events <- rest;
        Some e
end

let run (cfg : config) search_config sub executor =
  if cfg.nodes < 1 then invalid_arg "Simulation.run: need at least one node";
  let explorer = Afex.Explorer.create search_config sub executor in
  let managers =
    Array.init cfg.nodes (fun id -> Node_manager.create ~id ~executor ())
  in
  let events = Events.create () in
  let remaining = ref cfg.iterations in
  let now = ref 0.0 in
  let dispatched = ref 0 in
  (* Assign the next candidate to a free manager. The explorer generates
     candidates sequentially, so each dispatch also charges generation
     time (this is the §6.1 "no problematic bottleneck" cost model). *)
  let assign manager_id time =
    if !dispatched < cfg.iterations then begin
      match Afex.Explorer.next explorer with
      | None -> ()
      | Some proposal ->
          incr dispatched;
          let scenario = Afex.Explorer.scenario_for explorer proposal in
          let outcome, elapsed =
            Node_manager.run_scenario managers.(manager_id) scenario
          in
          let completion =
            time +. cfg.explorer_generation_ms +. cfg.dispatch_ms +. elapsed
          in
          Events.push events completion (manager_id, proposal, outcome)
    end
  in
  for m = 0 to cfg.nodes - 1 do
    assign m 0.0
  done;
  let rec drain () =
    match Events.pop events with
    | None -> ()
    | Some (time, (manager_id, proposal, outcome)) ->
        now := time;
        ignore (Afex.Explorer.report explorer proposal outcome);
        decr remaining;
        if !remaining > 0 then assign manager_id time;
        drain ()
  in
  drain ();
  let executed = Afex.Explorer.iterations explorer in
  let wall_ms = !now in
  let busy = Array.map Node_manager.busy_ms managers in
  {
    nodes = cfg.nodes;
    tests_executed = executed;
    wall_ms;
    throughput_per_s =
      (if wall_ms <= 0.0 then 0.0 else 1000.0 *. float_of_int executed /. wall_ms);
    busy_ms = busy;
    failed = Afex.Explorer.failed_count explorer;
    crashed = Afex.Explorer.crashed_count explorer;
    utilization =
      (if wall_ms <= 0.0 then 0.0
       else
         Array.fold_left ( +. ) 0.0 busy
         /. (wall_ms *. float_of_int cfg.nodes));
  }

let scaling ~node_counts ~iterations search_config sub executor =
  List.map
    (fun nodes ->
      run { default_config with nodes; iterations } search_config sub executor)
    node_counts

let speedup ~baseline result =
  if baseline.throughput_per_s <= 0.0 then 0.0
  else result.throughput_per_s /. baseline.throughput_per_s
