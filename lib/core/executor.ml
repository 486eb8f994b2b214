module Engine = Afex_injector.Engine
module Fault = Afex_injector.Fault
module Multifault = Afex_injector.Multifault
module Target = Afex_simtarget.Target

type t = {
  run_scenario : Afex_faultspace.Scenario.t -> Afex_injector.Outcome.t;
  total_blocks : int;
  description : string;
}

let of_target ?nondet target =
  let run_scenario scenario =
    match Fault.of_scenario scenario with
    | Ok fault -> Engine.run ?nondet target fault
    | Error m -> invalid_arg ("Executor: undecodable scenario: " ^ m)
  in
  {
    run_scenario;
    total_blocks = Target.total_blocks target;
    description = Printf.sprintf "%s %s" (Target.name target) (Target.version target);
  }

let of_target_multi ?nondet target =
  let run_scenario scenario =
    match Multifault.of_scenario scenario with
    | Ok mf -> Multifault.run ?nondet target mf
    | Error m -> invalid_arg ("Executor: undecodable multi-fault scenario: " ^ m)
  in
  {
    run_scenario;
    total_blocks = Target.total_blocks target;
    description =
      Printf.sprintf "%s %s (multi-fault)" (Target.name target) (Target.version target);
  }

let of_fn ~total_blocks ~description run =
  let run_scenario scenario =
    match Fault.of_scenario scenario with
    | Ok fault -> run fault
    | Error m -> invalid_arg ("Executor: undecodable scenario: " ^ m)
  in
  { run_scenario; total_blocks; description }

let of_scenario_fn ~total_blocks ~description run_scenario =
  { run_scenario; total_blocks; description }

(* ------------------------------------------------------------------ *)
(* Nonblocking execution                                               *)
(* ------------------------------------------------------------------ *)

type job = {
  poll : unit -> Afex_injector.Outcome.t option;
  wait_fd : Unix.file_descr option;
  ready_at_ms : unit -> float option;
}

type async = {
  start : Afex_faultspace.Scenario.t -> job;
  async_total_blocks : int;
  async_description : string;
}

let monotonic_ms =
  (* Offset so the clock starts near zero: poll times, request timeouts
     and latency deadlines never need absolute epoch values. *)
  let t0 = Unix.gettimeofday () in
  fun () -> 1000.0 *. (Unix.gettimeofday () -. t0)

let job_done outcome =
  {
    poll = (fun () -> Some outcome);
    wait_fd = None;
    ready_at_ms = (fun () -> Some 0.0);
  }

let async_of_sync t =
  {
    start = (fun scenario -> job_done (t.run_scenario scenario));
    async_total_blocks = t.total_blocks;
    async_description = t.description;
  }

let run_job_blocking ?(poll_interval_ms = 0.2) ?(now_ms = monotonic_ms) job =
  let rec wait () =
    match job.poll () with
    | Some outcome -> outcome
    | None ->
        let delay =
          match job.ready_at_ms () with
          | Some at -> Float.max 0.0 (at -. now_ms ())
          | None -> poll_interval_ms
        in
        if delay > 0.0 then Unix.sleepf (delay /. 1000.0);
        wait ()
  in
  wait ()

let sync_of_async ?poll_interval_ms ?now_ms a =
  {
    run_scenario =
      (fun scenario ->
        run_job_blocking ?poll_interval_ms ?now_ms (a.start scenario));
    total_blocks = a.async_total_blocks;
    description = a.async_description;
  }

let delayed ?(now_ms = monotonic_ms) ~delay_ms t =
  let start scenario =
    (* The simulated injector answers instantly; only the completion is
       deferred, which is exactly how a latency-bound target looks to a
       dispatcher: the request is in flight, the answer arrives later. *)
    let outcome = t.run_scenario scenario in
    let ready = now_ms () +. Float.max 0.0 (delay_ms scenario) in
    {
      poll = (fun () -> if now_ms () >= ready then Some outcome else None);
      wait_fd = None;
      ready_at_ms = (fun () -> Some ready);
    }
  in
  {
    start;
    async_total_blocks = t.total_blocks;
    async_description = t.description ^ " (simulated latency)";
  }
