module Outcome = Afex_injector.Outcome
module Scenario = Afex_faultspace.Scenario

let src = Logs.Src.create "afex.runtime" ~doc:"Unified execution runtime"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* The runtime                                                         *)
(* ------------------------------------------------------------------ *)

type completion = int * (Outcome.t, exn) result

(* Shared state of the Domain backend. Tasks, each a sequence number
   and a scenario, travel explorer -> [tasks] -> worker over one FIFO;
   completions travel worker -> explorer over a second. Each queue has
   its own mutex and condition: the explorer pushes under [work_lock]
   and signals one sleeping worker, and a worker waits only while
   [tasks] is empty and the backend is open. *)
type queues = {
  run : Scenario.t -> Outcome.t;
  tasks : (int * Scenario.t) Queue.t;
  work_lock : Mutex.t;
  work_cond : Condition.t;
  mutable closed : bool;
  done_lock : Mutex.t;
  done_cond : Condition.t;
  done_q : completion Queue.t;
  mutable outstanding : int; (* explorer-side: submitted, not yet polled *)
}

type backend =
  | Inline of (Scenario.t -> Outcome.t)
  | Domains of queues * unit Domain.t array
  | Event_loop of Async_executor.t

type t = { backend : backend; mutable shut : bool }

(* ---- worker side -------------------------------------------------- *)

let push_completion s c =
  Mutex.lock s.done_lock;
  Queue.push c s.done_q;
  Condition.signal s.done_cond;
  Mutex.unlock s.done_lock

let run_local run scenario = try Ok (run scenario) with e -> Error e

(* Take the oldest task, sleeping while there is none; after shutdown,
   keep taking until the queue is drained, then exit. *)
let worker s =
  let rec loop () =
    Mutex.lock s.work_lock;
    while Queue.is_empty s.tasks && not s.closed do
      Condition.wait s.work_cond s.work_lock
    done;
    let next = Queue.take_opt s.tasks in
    Mutex.unlock s.work_lock;
    match next with
    | Some (seq, scenario) ->
        push_completion s (seq, run_local s.run scenario);
        loop ()
    | None -> ()
  in
  loop ()

(* ---- construction ------------------------------------------------- *)

let inline run = { backend = Inline run; shut = false }

let domains ~jobs run =
  if jobs < 1 then invalid_arg "Runtime.domains: need at least one worker";
  let s =
    {
      run;
      tasks = Queue.create ();
      work_lock = Mutex.create ();
      work_cond = Condition.create ();
      closed = false;
      done_lock = Mutex.create ();
      done_cond = Condition.create ();
      done_q = Queue.create ();
      outstanding = 0;
    }
  in
  let workers = Array.init jobs (fun _ -> Domain.spawn (fun () -> worker s)) in
  { backend = Domains (s, workers); shut = false }

let event_loop async = { backend = Event_loop async; shut = false }
let async t = match t.backend with Event_loop a -> Some a | Inline _ | Domains _ -> None

(* ---- the submit/poll surface -------------------------------------- *)

let submit t ~seq scenario =
  if t.shut then invalid_arg "Runtime.submit: the runtime was shut down";
  match t.backend with
  | Inline run -> Some (run_local run scenario)
  | Event_loop a ->
      Async_executor.submit a ~tag:seq scenario;
      None
  | Domains (s, _) ->
      s.outstanding <- s.outstanding + 1;
      Mutex.lock s.work_lock;
      Queue.push (seq, scenario) s.tasks;
      Condition.signal s.work_cond;
      Mutex.unlock s.work_lock;
      None

let poll t ~block =
  match t.backend with
  | Inline _ -> []
  | Event_loop a -> Async_executor.poll a ~block
  | Domains (s, _) ->
      Mutex.lock s.done_lock;
      if block && s.outstanding > 0 then
        while Queue.is_empty s.done_q do
          Condition.wait s.done_cond s.done_lock
        done;
      let out = List.of_seq (Queue.to_seq s.done_q) in
      Queue.clear s.done_q;
      Mutex.unlock s.done_lock;
      s.outstanding <- s.outstanding - List.length out;
      out

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    match t.backend with
    | Inline _ -> ()
    | Event_loop a -> Async_executor.close a
    | Domains (s, workers) ->
        Mutex.lock s.work_lock;
        s.closed <- true;
        Condition.broadcast s.work_cond;
        Mutex.unlock s.work_lock;
        Array.iter Domain.join workers;
        if s.outstanding > 0 then
          Log.debug (fun m ->
              m "shutdown with %d completions unpolled" s.outstanding)
  end
