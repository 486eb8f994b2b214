module Outcome = Afex_injector.Outcome
module Pipelined = Remote_manager.Pipelined

let src = Logs.Src.create "afex.async" ~doc:"Single-domain async I/O executor"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Timer wheel                                                         *)
(* ------------------------------------------------------------------ *)

module Timer_wheel = struct
  type 'a entry = {
    deadline : float;
    order : int;
    payload : 'a;
    mutable cancelled : bool;
  }

  type 'a t = {
    granularity_ms : float;
    slots : 'a entry list array;
    mutable pending : int;
    mutable order : int;
    mutable now : float;
  }

  let create ?(granularity_ms = 1.0) ?(slots = 256) ~now_ms () =
    if granularity_ms <= 0.0 then
      invalid_arg "Timer_wheel.create: granularity must be positive";
    if slots < 1 then invalid_arg "Timer_wheel.create: need at least one slot";
    {
      granularity_ms;
      slots = Array.make slots [];
      pending = 0;
      order = 0;
      now = now_ms;
    }

  let tick t time = int_of_float (Float.max 0.0 time /. t.granularity_ms)

  let schedule t ~at_ms payload =
    (* Deadlines in the past fire on the next advance. *)
    let at_ms = Float.max t.now at_ms in
    let e = { deadline = at_ms; order = t.order; payload; cancelled = false } in
    t.order <- t.order + 1;
    let i = tick t at_ms mod Array.length t.slots in
    t.slots.(i) <- e :: t.slots.(i);
    t.pending <- t.pending + 1;
    e

  let cancel t e =
    if not e.cancelled then begin
      e.cancelled <- true;
      t.pending <- t.pending - 1
    end

  let pending t = t.pending

  let next_deadline t =
    if t.pending = 0 then None
    else
      Array.fold_left
        (List.fold_left (fun acc e ->
             if e.cancelled then acc
             else
               match acc with
               | None -> Some e.deadline
               | Some d -> Some (Float.min d e.deadline)))
        None t.slots

  (* Walk only the slots the clock swept over since the last advance; an
     entry a full rotation (or more) away stays in its bucket because its
     deadline is still in the future. Expired entries come out in
     deadline order, ties broken by scheduling order. *)
  let advance t ~now_ms =
    let n = Array.length t.slots in
    let first = tick t t.now and last = tick t (Float.max t.now now_ms) in
    let count = min n (last - first + 1) in
    let expired = ref [] in
    for k = 0 to count - 1 do
      let i = (first + k) mod n in
      let keep = ref [] in
      List.iter
        (fun e ->
          if e.cancelled then () (* already uncounted: drop it *)
          else if e.deadline <= now_ms then expired := e :: !expired
          else keep := e :: !keep)
        t.slots.(i);
      t.slots.(i) <- !keep
    done;
    t.now <- Float.max t.now now_ms;
    let sorted =
      List.sort
        (fun a b ->
          match compare a.deadline b.deadline with
          | 0 -> compare a.order b.order
          | c -> c)
        !expired
    in
    t.pending <- t.pending - List.length sorted;
    List.map (fun e -> e.payload) sorted
end

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

type task = {
  scenario : Afex_faultspace.Scenario.t option;
  start : unit -> Afex.Executor.job;
}

type stats = {
  local_runs : int;
  remote_runs : int;
  remote_fallbacks : int;
  max_inflight : int;
  wakeups : int;
}

(* Wheel events. [Poll] and [Request_timeout] reference live submissions
   by tag; their entries are cancelled when the tag completes, so a
   stale event can never touch a later submission. [Backoff_over] is a
   pure wakeup: it only bounds how long the loop may sleep while a
   manager is gated behind its reconnect backoff. *)
type event = Poll of int | Request_timeout of int * int | Backoff_over of int

type remote = {
  conn : Pipelined.conn;
  mutable not_before : float; (* backoff gate on the monotonic clock *)
  mutable seen_failures : int;
}

(* Submission state is persistent on [t], not per batch: tags flow
   [injections] -> (started: [local_jobs] or a manager's wire) ->
   [done_q]. [live] holds every incomplete tag's task — the local
   fallback needs the thunk long after submission. *)
type t = {
  inflight : int;
  request_timeout_ms : int;
  now_ms : unit -> float;
  wheel : event Timer_wheel.t;
  remotes : remote array;
  mutable rr : int; (* round-robin dispatch cursor *)
  injections : int Queue.t; (* submitted tags not yet started *)
  live : (int, task) Hashtbl.t; (* tag -> task until completion *)
  local_jobs : (int, Afex.Executor.job) Hashtbl.t;
  poll_timers : (int, event Timer_wheel.entry) Hashtbl.t;
  req_timers : (int, event Timer_wheel.entry) Hashtbl.t;
  done_q : (int * (Outcome.t, exn) result) Queue.t;
  mutable active : int; (* started, not completed *)
  mutable n_local : int;
  mutable n_remote : int;
  mutable n_fallback : int;
  mutable max_seen : int;
  mutable n_wakeups : int;
}

(* How soon to poll again when a job gives no readiness estimate, or its
   estimate has already passed. *)
let poll_fallback_ms = 1.0

let create ?(remotes = []) ?(request_timeout_ms = 10_000)
    ?(now_ms = Afex.Executor.monotonic_ms) ~inflight ~total_blocks () =
  if inflight < 1 then
    invalid_arg "Async_executor.create: inflight must be positive";
  if request_timeout_ms < 1 then
    invalid_arg "Async_executor.create: request timeout must be positive";
  {
    inflight;
    request_timeout_ms;
    now_ms;
    wheel = Timer_wheel.create ~now_ms:(now_ms ()) ();
    remotes =
      Array.of_list
        (List.map
           (fun spec ->
             (* Each manager's share of the window, rounded up (see the
                .mli); [remotes] is not empty here. *)
             let conn =
               Pipelined.create spec
                 ~credit:(1 + ((inflight - 1) / List.length remotes))
                 ~total_blocks
             in
             { conn; not_before = 0.0; seen_failures = 0 })
           remotes);
    rr = 0;
    injections = Queue.create ();
    live = Hashtbl.create 64;
    local_jobs = Hashtbl.create 16;
    poll_timers = Hashtbl.create 16;
    req_timers = Hashtbl.create 16;
    done_q = Queue.create ();
    active = 0;
    n_local = 0;
    n_remote = 0;
    n_fallback = 0;
    max_seen = 0;
    n_wakeups = 0;
  }

let stats t =
  {
    local_runs = t.n_local;
    remote_runs = t.n_remote;
    remote_fallbacks = t.n_fallback;
    max_inflight = t.max_seen;
    wakeups = t.n_wakeups;
  }

let remote_stats t =
  Array.to_list
    (Array.map (fun r -> (Pipelined.name r.conn, Pipelined.stats r.conn)) t.remotes)

let outstanding t = Hashtbl.length t.live

let close t = Array.iter (fun r -> Pipelined.close r.conn) t.remotes

(* A manager failed: gate its next attempt behind the exponential backoff
   as a timer-wheel deadline — never a sleep, so every other in-flight
   test keeps progressing while it cools off. *)
let refresh_gate t ix =
  let r = t.remotes.(ix) in
  let f = Pipelined.failures r.conn in
  if f > r.seen_failures then begin
    r.seen_failures <- f;
    if not (Pipelined.abandoned r.conn) then begin
      r.not_before <- t.now_ms () +. Pipelined.backoff_ms r.conn;
      ignore (Timer_wheel.schedule t.wheel ~at_ms:r.not_before (Backoff_over ix));
      Log.debug (fun m ->
          m "%s: backoff until t+%.1fms (failure %d/%d)" (Pipelined.name r.conn)
            (Pipelined.backoff_ms r.conn) f
            (Pipelined.max_attempts r.conn))
    end
  end
  else if f < r.seen_failures then r.seen_failures <- f

let cancel_timer t table tag =
  match Hashtbl.find_opt table tag with
  | Some e ->
      Timer_wheel.cancel t.wheel e;
      Hashtbl.remove table tag
  | None -> ()

let set_poll_timer t tag at =
  cancel_timer t t.poll_timers tag;
  Hashtbl.replace t.poll_timers tag
    (Timer_wheel.schedule t.wheel ~at_ms:at (Poll tag))

let complete t tag result =
  if Hashtbl.mem t.live tag then begin
    Hashtbl.remove t.live tag;
    Hashtbl.remove t.local_jobs tag;
    t.active <- t.active - 1;
    cancel_timer t t.poll_timers tag;
    cancel_timer t t.req_timers tag;
    Queue.push (tag, result) t.done_q
  end

let start_local t tag =
  match Hashtbl.find_opt t.live tag with
  | None -> ()
  | Some task -> (
      t.n_local <- t.n_local + 1;
      match task.start () with
      | exception e -> complete t tag (Error e)
      | job -> (
          match job.Afex.Executor.poll () with
          | Some outcome -> complete t tag (Ok outcome)
          | exception e -> complete t tag (Error e)
          | None ->
              Hashtbl.replace t.local_jobs tag job;
              let at =
                match job.Afex.Executor.ready_at_ms () with
                | Some d -> Float.max d (t.now_ms ())
                | None -> t.now_ms () +. poll_fallback_ms
              in
              set_poll_timer t tag at))

let poll_slot t tag =
  match Hashtbl.find_opt t.local_jobs tag with
  | None -> ()
  | Some job -> (
      match job.Afex.Executor.poll () with
      | Some outcome -> complete t tag (Ok outcome)
      | exception e -> complete t tag (Error e)
      | None ->
          let now = t.now_ms () in
          let at =
            match job.Afex.Executor.ready_at_ms () with
            | Some d when d > now -> d
            | Some _ | None -> now +. poll_fallback_ms
          in
          set_poll_timer t tag at)

let fallback t tag =
  if Hashtbl.mem t.live tag then begin
    cancel_timer t t.req_timers tag;
    t.n_fallback <- t.n_fallback + 1;
    start_local t tag
  end

let absorb_orphans t ix =
  List.iter (fallback t) (Pipelined.take_orphans t.remotes.(ix).conn)

(* Try to put the test on a manager's wire; [false] = the caller runs
   it locally. Submit failures drop the connection, orphaning whatever
   was in flight on it — those fall back here too, immediately. *)
let try_remote t tag scenario =
  let m = Array.length t.remotes in
  let rec go k =
    if k >= m then false
    else begin
      let ix = (t.rr + k) mod m in
      let r = t.remotes.(ix) in
      if
        Pipelined.dispatchable r.conn
        && Pipelined.has_credit r.conn
        && t.now_ms () >= r.not_before
      then begin
        match Pipelined.submit r.conn ~tag scenario with
        | Ok () ->
            t.rr <- (ix + 1) mod m;
            t.n_remote <- t.n_remote + 1;
            cancel_timer t t.req_timers tag;
            Hashtbl.replace t.req_timers tag
              (Timer_wheel.schedule t.wheel
                 ~at_ms:(t.now_ms () +. float_of_int t.request_timeout_ms)
                 (Request_timeout (ix, tag)));
            true
        | Error e ->
            Log.debug (fun m ->
                m "%s: submit failed: %s" (Pipelined.name r.conn)
                  (Remote_manager.string_of_error e));
            refresh_gate t ix;
            absorb_orphans t ix;
            go (k + 1)
      end
      else go (k + 1)
    end
  in
  go 0

let dispatch t =
  while t.active < t.inflight && not (Queue.is_empty t.injections) do
    let tag = Queue.pop t.injections in
    match Hashtbl.find_opt t.live tag with
    | None -> ()
    | Some task -> (
        t.active <- t.active + 1;
        if t.active > t.max_seen then t.max_seen <- t.active;
        match task.scenario with
        | Some scenario when Array.length t.remotes > 0 ->
            if not (try_remote t tag scenario) then begin
              if
                Array.exists (fun r -> not (Pipelined.abandoned r.conn)) t.remotes
              then t.n_fallback <- t.n_fallback + 1;
              start_local t tag
            end
        | Some _ | None -> start_local t tag)
  done

let handle_event t = function
  | Poll tag ->
      Hashtbl.remove t.poll_timers tag;
      poll_slot t tag
  | Backoff_over _ -> ()
  | Request_timeout (ix, tag) ->
      Hashtbl.remove t.req_timers tag;
      let r = t.remotes.(ix) in
      if Hashtbl.mem t.live tag && Pipelined.awaiting r.conn tag then begin
        (* A straggling manager forfeits everything it holds. *)
        Log.debug (fun m ->
            m "%s: request timeout after %dms" (Pipelined.name r.conn)
              t.request_timeout_ms);
        Pipelined.fail r.conn;
        refresh_gate t ix;
        absorb_orphans t ix
      end

let drain_remotes t =
  Array.iteri
    (fun ix r ->
      List.iter
        (fun (tag, result) ->
          match result with
          | Ok outcome ->
              cancel_timer t t.req_timers tag;
              complete t tag (Ok outcome)
          | Error e ->
              Log.debug (fun m ->
                  m "%s: test %d failed remotely (%s); re-running locally"
                    (Pipelined.name r.conn) tag
                    (Remote_manager.string_of_error e));
              fallback t tag)
        (Pipelined.drain r.conn);
      refresh_gate t ix;
      absorb_orphans t ix)
    t.remotes

(* Nothing may sit in a coalescing buffer while the loop blocks in
   [select] waiting for replies those very requests would produce. *)
let flush_remotes t =
  Array.iteri
    (fun ix r ->
      match Pipelined.flush r.conn with
      | Ok () -> ()
      | Error _ ->
          refresh_gate t ix;
          absorb_orphans t ix)
    t.remotes

(* One event-loop iteration: select over job fds and remote sockets up
   to [max_wait_s] (bounded by the wheel's next deadline), then drain
   everything that became ready and refill the dispatch window. *)
let step t ~max_wait_s =
  t.n_wakeups <- t.n_wakeups + 1;
  flush_remotes t;
  let now = t.now_ms () in
  let fd_slots =
    Hashtbl.fold
      (fun tag (job : Afex.Executor.job) acc ->
        match job.Afex.Executor.wait_fd with
        | Some fd -> (fd, tag) :: acc
        | None -> acc)
      t.local_jobs []
  in
  let remote_fds =
    Array.fold_left
      (fun acc r ->
        match Pipelined.wait_fd r.conn with Some fd -> fd :: acc | None -> acc)
      [] t.remotes
  in
  let fds = List.map fst fd_slots @ remote_fds in
  let timeout_s =
    match Timer_wheel.next_deadline t.wheel with
    | Some d -> Float.max 0.0 (Float.min max_wait_s ((d -. now) /. 1000.0))
    | None -> if fds = [] then 0.0 else Float.min max_wait_s 0.05
  in
  let readable =
    if fds = [] then begin
      if timeout_s > 0.0 then Unix.sleepf timeout_s;
      []
    end
    else
      match Unix.select fds [] [] timeout_s with
      | r, _, _ -> r
      | exception Unix.Unix_error (EINTR, _, _) -> []
  in
  drain_remotes t;
  List.iter
    (fun (fd, tag) -> if List.memq fd readable then poll_slot t tag)
    fd_slots;
  List.iter (handle_event t) (Timer_wheel.advance t.wheel ~now_ms:(t.now_ms ()));
  dispatch t;
  flush_remotes t

let submit t ~tag task =
  if Hashtbl.mem t.live tag then
    invalid_arg (Printf.sprintf "Async_executor.submit: tag %d is already live" tag);
  Hashtbl.replace t.live tag task;
  Queue.push tag t.injections;
  (* Start eagerly — submission overlaps with whatever the caller does
     next (for the pool: generating the next candidate). *)
  dispatch t

let poll t ~block =
  dispatch t;
  flush_remotes t;
  if Queue.is_empty t.done_q && Hashtbl.length t.live > 0 then
    if block then
      while Queue.is_empty t.done_q && Hashtbl.length t.live > 0 do
        step t ~max_wait_s:0.1
      done
    else step t ~max_wait_s:0.0;
  let out = List.of_seq (Queue.to_seq t.done_q) in
  Queue.clear t.done_q;
  out

let exec_batch t tasks =
  if Hashtbl.length t.live > 0 then
    invalid_arg "Async_executor.exec_batch: submissions already outstanding";
  let n = Array.length tasks in
  let results = Array.make n None in
  Array.iteri (fun tag task -> submit t ~tag task) tasks;
  let remaining = ref n in
  while !remaining > 0 do
    List.iter
      (fun (tag, r) ->
        if results.(tag) = None then decr remaining;
        results.(tag) <- Some r)
      (poll t ~block:true)
  done;
  Array.map (function Some r -> r | None -> assert false) results
