module Rng = Afex_stats.Rng
module Outcome = Afex_injector.Outcome

let src = Logs.Src.create "afex.runtime" ~doc:"Unified work-stealing runtime"

module Log = (val Logs.src_log src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Reorder buffer                                                      *)
(* ------------------------------------------------------------------ *)

module Reorder = struct
  type 'a t = { mutable next : int; buf : (int, 'a) Hashtbl.t }

  let create ?(next = 0) () = { next; buf = Hashtbl.create 64 }

  let offer t ~seq v =
    if seq < t.next then
      invalid_arg
        (Printf.sprintf
           "Runtime.Reorder.offer: sequence %d was already released (watermark \
            %d)"
           seq t.next);
    if Hashtbl.mem t.buf seq then
      invalid_arg
        (Printf.sprintf "Runtime.Reorder.offer: duplicate sequence %d" seq);
    Hashtbl.replace t.buf seq v

  let peek t = Hashtbl.find_opt t.buf t.next

  let pop t =
    match Hashtbl.find_opt t.buf t.next with
    | None -> None
    | Some v ->
        Hashtbl.remove t.buf t.next;
        t.next <- t.next + 1;
        Some v

  let watermark t = t.next
  let buffered t = Hashtbl.length t.buf
end

(* ------------------------------------------------------------------ *)
(* Work-stealing deque                                                 *)
(* ------------------------------------------------------------------ *)

(* Chase–Lev with OCaml's sequentially consistent atomics. [top] only
   grows (thief CAS, or owner CAS for the last element); [bottom] is
   owner-written. Cells hold ['a option Atomic.t] so a thief racing a
   grow still reads a published value: the owner copies live logical
   indices into the new ring and never overwrites a live index in the
   old one (push grows instead of wrapping onto an unstolen slot). *)
module Deque = struct
  type 'a t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    ring : 'a option Atomic.t array Atomic.t;
  }

  let make_ring n = Array.init n (fun _ -> Atomic.make None)

  let create ?(capacity = 64) () =
    if capacity < 1 then invalid_arg "Runtime.Deque.create: capacity must be positive";
    { top = Atomic.make 0; bottom = Atomic.make 0; ring = Atomic.make (make_ring capacity) }

  let length q = max 0 (Atomic.get q.bottom - Atomic.get q.top)

  (* Owner only. Copy live indices [t, b) into a ring twice the size;
     thieves still holding the old ring read values that remain valid
     for any index they can successfully CAS. *)
  let grow q ring t b =
    let n = Array.length ring in
    let bigger = make_ring (2 * n) in
    for i = t to b - 1 do
      Atomic.set bigger.(i mod (2 * n)) (Atomic.get ring.(i mod n))
    done;
    Atomic.set q.ring bigger;
    bigger

  let push q x =
    let b = Atomic.get q.bottom and t = Atomic.get q.top in
    let ring = Atomic.get q.ring in
    let ring = if b - t >= Array.length ring then grow q ring t b else ring in
    Atomic.set ring.(b mod Array.length ring) (Some x);
    Atomic.set q.bottom (b + 1)

  let steal q =
    let rec go () =
      let t = Atomic.get q.top in
      (* [top] before [bottom]: a stale bottom can only under-estimate,
         so a thief never claims an index the owner is popping. *)
      let b = Atomic.get q.bottom in
      if t >= b then None
      else begin
        let ring = Atomic.get q.ring in
        let x = Atomic.get ring.(t mod Array.length ring) in
        if Atomic.compare_and_set q.top t (t + 1) then x else go ()
      end
    in
    go ()

  let pop q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if b < t then begin
      (* Empty: restore the canonical empty state. *)
      Atomic.set q.bottom t;
      None
    end
    else begin
      let ring = Atomic.get q.ring in
      let x = Atomic.get ring.(b mod Array.length ring) in
      if b > t then x
      else begin
        (* Last element: race thieves for it via the CAS on [top]. *)
        let won = Atomic.compare_and_set q.top t (t + 1) in
        Atomic.set q.bottom (t + 1);
        if won then x else None
      end
    end
end

(* ------------------------------------------------------------------ *)
(* The runtime                                                         *)
(* ------------------------------------------------------------------ *)

type task = {
  seq : int;
  scenario : Afex_faultspace.Scenario.t option;
  run : unit -> Outcome.t;
  start : unit -> Afex.Executor.job;
}

type completion = int * (Outcome.t, exn) result

(* Shared state of the stealing backend. Tasks travel explorer -> deque
   -> worker; completions travel worker -> explorer over a mutex'd MPSC
   queue. [version] existence-proofs new work for sleeping workers: it
   is bumped under [work_lock] after every push, and a worker only waits
   when a full scan found nothing AND the version is unchanged since
   before that scan — so a push can never slip between scan and sleep. *)
type stealing = {
  deques : task Deque.t array;
  mutable rr : int;  (* explorer-side round-robin submission cursor *)
  work_lock : Mutex.t;
  work_cond : Condition.t;
  mutable version : int;
  mutable closed : bool;
  done_lock : Mutex.t;
  done_cond : Condition.t;
  done_q : completion Queue.t;
}

type backend =
  | Inline of completion Queue.t
  | Domains of stealing * unit Domain.t array
  | Event_loop of Async_executor.t

type t = {
  backend : backend;
  mutable live : int;  (* submitted, completion not yet polled *)
  mutable shut : bool;
}

(* ---- worker side -------------------------------------------------- *)

let push_completion s c =
  Mutex.lock s.done_lock;
  Queue.push c s.done_q;
  Condition.signal s.done_cond;
  Mutex.unlock s.done_lock

(* Own deque first (cheap CAS on an uncontended top most of the time),
   then every other deque starting from a seeded random victim. The
   victim order shifts work placement, never the merged history. *)
let find_task s self rng =
  match Deque.steal s.deques.(self) with
  | Some _ as found -> found
  | None ->
      let n = Array.length s.deques in
      if n = 1 then None
      else begin
        let offset = Rng.int rng (n - 1) in
        let rec probe k =
          if k >= n - 1 then None
          else
            let victim = (self + 1 + ((offset + k) mod (n - 1))) mod n in
            match Deque.steal s.deques.(victim) with
            | Some _ as found -> found
            | None -> probe (k + 1)
        in
        probe 0
      end

let run_local task = try Ok (task.run ()) with e -> Error e

let worker s self rng =
  let rec loop () =
    match find_task s self rng with
    | Some task ->
        push_completion s (task.seq, run_local task);
        loop ()
    | None ->
        Mutex.lock s.work_lock;
        let v = s.version in
        Mutex.unlock s.work_lock;
        (* Re-scan after reading the version: anything pushed before the
           read is visible to this scan; anything pushed after bumps the
           version and fails the sleep condition below. *)
        (match find_task s self rng with
        | Some task ->
            push_completion s (task.seq, run_local task);
            loop ()
        | None ->
            Mutex.lock s.work_lock;
            while s.version = v && not s.closed do
              Condition.wait s.work_cond s.work_lock
            done;
            let stop = s.closed && s.version = v in
            Mutex.unlock s.work_lock;
            if not stop then loop ())
  in
  loop ()

(* ---- construction ------------------------------------------------- *)

let inline () =
  {
    backend = Inline (Queue.create ());
    live = 0;
    shut = false;
  }

let domains ?(steal_seed = 0) ~jobs () =
  if jobs < 1 then invalid_arg "Runtime.domains: need at least one worker";
  let s =
    {
      deques = Array.init jobs (fun _ -> Deque.create ());
      rr = 0;
      work_lock = Mutex.create ();
      work_cond = Condition.create ();
      version = 0;
      closed = false;
      done_lock = Mutex.create ();
      done_cond = Condition.create ();
      done_q = Queue.create ();
    }
  in
  let workers =
    Array.init jobs (fun i ->
        Domain.spawn (fun () -> worker s i (Rng.create (steal_seed + i))))
  in
  {
    backend = Domains (s, workers);
    live = 0;
    shut = false;
  }

let event_loop async =
  {
    backend = Event_loop async;
    live = 0;
    shut = false;
  }

let outstanding t = t.live
let async t = match t.backend with Event_loop a -> Some a | Inline _ | Domains _ -> None

(* ---- the submit/poll surface -------------------------------------- *)

let submit t task =
  if t.shut then invalid_arg "Runtime.submit: the runtime was shut down";
  t.live <- t.live + 1;
  match t.backend with
  | Inline q -> Queue.push (task.seq, run_local task) q
  | Event_loop a ->
      Async_executor.submit a ~tag:task.seq
        { Async_executor.scenario = task.scenario; start = task.start }
  | Domains (s, _) ->
      Deque.push s.deques.(s.rr) task;
      s.rr <- (s.rr + 1) mod Array.length s.deques;
      Mutex.lock s.work_lock;
      s.version <- s.version + 1;
      Condition.broadcast s.work_cond;
      Mutex.unlock s.work_lock

let poll t ~block =
  let completions =
    match t.backend with
    | Inline q ->
        let out = List.of_seq (Queue.to_seq q) in
        Queue.clear q;
        out
    | Event_loop a -> Async_executor.poll a ~block
    | Domains (s, _) ->
        Mutex.lock s.done_lock;
        if block && t.live > 0 then
          while Queue.is_empty s.done_q do
            Condition.wait s.done_cond s.done_lock
          done;
        let out = List.of_seq (Queue.to_seq s.done_q) in
        Queue.clear s.done_q;
        Mutex.unlock s.done_lock;
        out
  in
  t.live <- t.live - List.length completions;
  completions

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
        if t.live > 0 then
          Log.debug (fun m -> m "shutdown with %d completions unpolled" t.live)
  end
