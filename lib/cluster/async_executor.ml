module Outcome = Afex_injector.Outcome
module Scenario = Afex_faultspace.Scenario
module Pipelined = Remote_manager.Pipelined

let src = Logs.Src.create "afex.async" ~doc:"Single-domain async I/O executor"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

type stats = {
  local_runs : int;
  remote_runs : int;
  remote_fallbacks : int;
  max_inflight : int;
  wakeups : int;
}

(* A started local job and the {!Afex.Executor.monotonic_ms} instant at
   which the loop polls it next. *)
type local = { job : Afex.Executor.job; mutable due : float }

(* A test in flight is held in exactly one place: [injections] until
   it starts, then [local_jobs] or a manager's connection (which keeps
   the scenario until the request is answered, and hands back whatever
   it cannot answer as an orphan to run here), then [done_q]. The tag
   is the caller's sequence number, and the wire's. *)
type t = {
  exec : Afex.Executor.async;
  inflight : int;
  request_timeout_ms : int;
  remotes : Pipelined.conn array;
  mutable rr : int; (* round-robin dispatch cursor *)
  injections : (int * Scenario.t) Queue.t; (* submitted, not yet started *)
  local_jobs : (int, local) Hashtbl.t;
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

let now_ms = Afex.Executor.monotonic_ms

let create ?(remotes = []) ?(request_timeout_ms = 10_000) ~inflight exec =
  if inflight < 1 then
    invalid_arg "Async_executor.create: inflight must be positive";
  if request_timeout_ms < 1 then
    invalid_arg "Async_executor.create: request timeout must be positive";
  {
    exec;
    inflight;
    request_timeout_ms;
    remotes =
      Array.of_list
        (List.map
           (fun spec ->
             (* Each manager's share of the window, rounded up (see the
                .mli); [remotes] is not empty here. *)
             Pipelined.create spec
               ~credit:(1 + ((inflight - 1) / List.length remotes))
               ~total_blocks:exec.Afex.Executor.async_total_blocks)
           remotes);
    rr = 0;
    injections = Queue.create ();
    local_jobs = Hashtbl.create 16;
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
    (Array.map (fun c -> (Pipelined.name c, Pipelined.stats c)) t.remotes)

let close t = Array.iter Pipelined.close t.remotes

let complete t tag result =
  Hashtbl.remove t.local_jobs tag;
  t.active <- t.active - 1;
  Queue.push (tag, result) t.done_q

let start_local t tag scenario =
  t.n_local <- t.n_local + 1;
  match t.exec.Afex.Executor.start scenario with
  | exception e -> complete t tag (Error e)
  | job -> (
      match job.Afex.Executor.poll () with
      | Some outcome -> complete t tag (Ok outcome)
      | exception e -> complete t tag (Error e)
      | None ->
          let due =
            match job.Afex.Executor.ready_at_ms () with
            | Some d -> Float.max d (now_ms ())
            | None -> now_ms () +. poll_fallback_ms
          in
          Hashtbl.replace t.local_jobs tag { job; due })

let poll_slot t tag =
  match Hashtbl.find_opt t.local_jobs tag with
  | None -> ()
  | Some l -> (
      match l.job.Afex.Executor.poll () with
      | Some outcome -> complete t tag (Ok outcome)
      | exception e -> complete t tag (Error e)
      | None ->
          let now = now_ms () in
          l.due <-
            (match l.job.Afex.Executor.ready_at_ms () with
            | Some d when d > now -> d
            | Some _ | None -> now +. poll_fallback_ms))

(* Run here every test a manager handed back: stranded by a failure,
   refused, or answered with an unusable report. *)
let absorb_orphans t conn =
  List.iter
    (fun (tag, scenario) ->
      t.n_fallback <- t.n_fallback + 1;
      start_local t tag scenario)
    (Pipelined.take_orphans conn)

(* Try to put the test on a manager's wire; [false] = the caller runs
   it locally. Submit failures drop the connection, orphaning whatever
   was in flight on it — those fall back here too, immediately. *)
let try_remote t tag scenario =
  let m = Array.length t.remotes in
  let rec go k =
    if k >= m then false
    else begin
      let ix = (t.rr + k) mod m in
      let conn = t.remotes.(ix) in
      if Pipelined.dispatchable conn && Pipelined.has_credit conn then begin
        match Pipelined.submit conn ~tag scenario with
        | Ok () ->
            t.rr <- (ix + 1) mod m;
            t.n_remote <- t.n_remote + 1;
            true
        | Error e ->
            Log.debug (fun m ->
                m "%s: submit failed: %s" (Pipelined.name conn)
                  (Remote_manager.string_of_error e));
            absorb_orphans t conn;
            go (k + 1)
      end
      else go (k + 1)
    end
  in
  go 0

let dispatch t =
  while t.active < t.inflight && not (Queue.is_empty t.injections) do
    let tag, scenario = Queue.pop t.injections in
    t.active <- t.active + 1;
    if t.active > t.max_seen then t.max_seen <- t.active;
    if Array.length t.remotes = 0 then start_local t tag scenario
    else if not (try_remote t tag scenario) then begin
      if Array.exists (fun c -> not (Pipelined.abandoned c)) t.remotes then
        t.n_fallback <- t.n_fallback + 1;
      start_local t tag scenario
    end
  done

let drain_remotes t =
  Array.iter
    (fun conn ->
      List.iter
        (fun (tag, outcome) -> complete t tag (Ok outcome))
        (Pipelined.drain conn);
      absorb_orphans t conn)
    t.remotes

(* Nothing may sit in a coalescing buffer while the loop blocks in
   [select] waiting for replies those very requests would produce. *)
let flush_remotes t =
  Array.iter
    (fun conn ->
      match Pipelined.flush conn with
      | Ok () -> ()
      | Error _ -> absorb_orphans t conn)
    t.remotes

(* Every request shares one timeout, so a connection's first deadline
   is its oldest unanswered request's. *)
let request_deadline t conn =
  match Pipelined.oldest_sent_ms conn with
  | Some sent -> sent +. float_of_int t.request_timeout_ms
  | None -> infinity

(* The earliest instant the loop must wake without an fd: a local job
   falls due, or a connection's oldest request times out. *)
let next_deadline t =
  Array.fold_left
    (fun acc conn -> Float.min acc (request_deadline t conn))
    (Hashtbl.fold
       (fun _ l acc -> if l.due < acc then l.due else acc)
       t.local_jobs infinity)
    t.remotes

(* One event-loop iteration: select over job fds and remote sockets up
   to [max_wait_s] (bounded by {!next_deadline}), then drain everything
   that became ready, poll the local jobs that are due, fail every
   connection whose oldest request outlived [request_timeout_ms], and
   refill the dispatch window. *)
let step t ~max_wait_s =
  t.n_wakeups <- t.n_wakeups + 1;
  flush_remotes t;
  let fd_slots =
    Hashtbl.fold
      (fun tag l acc ->
        match l.job.Afex.Executor.wait_fd with
        | Some fd -> (fd, tag) :: acc
        | None -> acc)
      t.local_jobs []
  in
  let remote_fds =
    Array.fold_left
      (fun acc conn ->
        match Pipelined.wait_fd conn with Some fd -> fd :: acc | None -> acc)
      [] t.remotes
  in
  let fds = List.map fst fd_slots @ remote_fds in
  let deadline = next_deadline t in
  let timeout_s =
    if deadline < infinity then
      Float.max 0.0 (Float.min max_wait_s ((deadline -. now_ms ()) /. 1000.0))
    else if fds = [] then 0.0
    else Float.min max_wait_s 0.05
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
  let now = now_ms () in
  List.iter (poll_slot t)
    (Hashtbl.fold
       (fun tag l acc -> if l.due <= now then tag :: acc else acc)
       t.local_jobs []);
  Array.iter
    (fun conn ->
      if request_deadline t conn <= now then begin
        (* A straggling manager forfeits everything it holds. *)
        Log.debug (fun m ->
            m "%s: request timeout after %dms" (Pipelined.name conn)
              t.request_timeout_ms);
        Pipelined.fail conn;
        absorb_orphans t conn
      end)
    t.remotes;
  dispatch t;
  flush_remotes t

let submit t ~tag scenario =
  Queue.push (tag, scenario) t.injections;
  (* Start eagerly — submission overlaps with whatever the caller does
     next (for the pool: generating the next candidate). *)
  dispatch t

let poll t ~block =
  dispatch t;
  flush_remotes t;
  (* After [dispatch], tests wait in [injections] only while the window
     is full, so [active] counts whether anything is outstanding. *)
  if Queue.is_empty t.done_q && t.active > 0 then
    if block then
      while Queue.is_empty t.done_q && t.active > 0 do
        step t ~max_wait_s:0.1
      done
    else step t ~max_wait_s:0.0;
  let out = List.of_seq (Queue.to_seq t.done_q) in
  Queue.clear t.done_q;
  out
