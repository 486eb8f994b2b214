(* Span accounting for the traced rep.

   The pool exposes three public callbacks that fire on the explorer
   thread at layer boundaries: [?transform] (right after [Explorer.next]),
   the executor's [run_scenario] (entry and exit) and [?stop]'s [matches]
   (right after [Explorer.report]). Each hook reads the clock and the
   domain's minor-word counter and charges the interval since the
   previous hook to the span the hook closes:

   - transform closes [Next] (generation, plus the memo probe of a
     preceding cache hit),
   - executor entry closes [Submit] (scenario build, memo probe,
     dispatch),
   - executor exit closes [Exec],
   - release closes [Report] (reorder pop, memo store, [Explorer.report];
     on a cache hit also the submit work, since no executor span
     separates the two).

   The spans therefore partition the explorer thread's time from
   [start] to the last hook. Nothing is allocated while recording: spans
   go into arrays sized up front and are only read after the run. The
   arrays live outside the OCaml heap, so the major GC does not scan
   them on every cycle of the traced rep. *)

type kind = Next | Submit | Exec | Report

let kinds = [ Next; Submit; Exec; Report ]
let index = function Next -> 0 | Submit -> 1 | Exec -> 2 | Report -> 3

let name = function
  | Next -> "explorer.next"
  | Submit -> "pool.submit"
  | Exec -> "executor.run"
  | Report -> "explorer.report"

(* [Live] reads the monotonic clock and [Gc.minor_words] directly, so the
   values stay unboxed; [Fake] lets tests drive both. *)
type source = Live | Fake of { clock : unit -> int; words : unit -> int }
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  source : source;
  kind : ints;
  stop : ints;  (** ns at the hook that closed the span *)
  dur : ints;  (** ns *)
  words : ints;
  mutable n : int;
  mutable dropped : int;
  stamps : ints;  (** release instants, for time-to-first-violation *)
  mutable n_stamps : int;
  mutable origin : int;
  mutable last_t : int;
  mutable last_w : int;
}

let ints n : ints = Bigarray.(Array1.create int c_layout n)

let create ?(source = Live) ~capacity () =
  {
    source;
    kind = ints capacity;
    stop = ints capacity;
    dur = ints capacity;
    words = ints capacity;
    n = 0;
    dropped = 0;
    stamps = ints capacity;
    n_stamps = 0;
    origin = 0;
    last_t = 0;
    last_w = 0;
  }

let[@inline never] record t k ns w =
  let i = t.n in
  if i < Bigarray.Array1.dim t.kind then begin
    t.kind.{i} <- index k;
    t.stop.{i} <- ns;
    t.dur.{i} <- ns - t.last_t;
    t.words.{i} <- w - t.last_w;
    t.n <- i + 1
  end
  else t.dropped <- t.dropped + 1;
  t.last_t <- ns;
  t.last_w <- w

let[@inline never] set_last t ns w =
  t.last_t <- ns;
  t.last_w <- w

(* Restart the interval without charging it to any span (a session
   start, or a manager picking up a request after idling). *)
let mark t =
  match t.source with
  | Live ->
      let ns = Int64.to_int (Monotonic_clock.now ()) in
      let w = int_of_float (Gc.minor_words ()) in
      set_last t ns w
  | Fake f ->
      let ns = f.clock () in
      set_last t ns (f.words ())

(* [mark], and make this instant the zero of exported timestamps. *)
let start t =
  mark t;
  t.origin <- t.last_t

let last t = t.last_t

let close t k =
  match t.source with
  | Live ->
      let ns = Int64.to_int (Monotonic_clock.now ()) in
      let w = int_of_float (Gc.minor_words ()) in
      record t k ns w
  | Fake f ->
      let ns = f.clock () in
      record t k ns (f.words ())

let[@inline never] push_stamp t ns =
  if t.n_stamps < Bigarray.Array1.dim t.stamps then begin
    t.stamps.{t.n_stamps} <- ns;
    t.n_stamps <- t.n_stamps + 1
  end

(* A release: closes [Report] and remembers when it happened. *)
let release t =
  close t Report;
  push_stamp t t.last_t

(* A release instant without a span boundary (the checkpoint journal
   hook fires before [Explorer.report], so it cannot close [Report]). *)
let stamp t =
  match t.source with
  | Live -> push_stamp t (Int64.to_int (Monotonic_clock.now ()))
  | Fake f -> push_stamp t (f.clock ())

type summary = { calls : int; total_ns : int; total_words : int }

let summary t k =
  let ki = index k in
  let calls = ref 0 and ns = ref 0 and w = ref 0 in
  for i = 0 to t.n - 1 do
    if t.kind.{i} = ki then begin
      incr calls;
      ns := !ns + t.dur.{i};
      w := !w + t.words.{i}
    end
  done;
  { calls = !calls; total_ns = !ns; total_words = !w }

(* Per-call durations of one span kind, in ns, in recording order. *)
let durations t k =
  let ki = index k in
  let out = ref [] in
  for i = t.n - 1 downto 0 do
    if t.kind.{i} = ki then out := float_of_int t.dur.{i} :: !out
  done;
  !out

let covered_ns t =
  let s = ref 0 in
  for i = 0 to t.n - 1 do
    s := !s + t.dur.{i}
  done;
  !s

let dropped t = t.dropped

let releases t = t.n_stamps

(* Clock reading at the [i]-th release (0-based). *)
let release_at t i = if i < t.n_stamps then Some t.stamps.{i} else None

(* Chrome trace-event "complete" events, one JSON object per span,
   timestamps in µs from [start]. *)
let events ~pid ~tid t =
  List.init t.n (fun i ->
      let d = t.dur.{i} in
      Printf.sprintf
        "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": %d, \"ts\": \
         %.3f, \"dur\": %.3f, \"args\": {\"words\": %d}}"
        (name (List.nth kinds t.kind.{i}))
        pid tid
        (float_of_int (t.stop.{i} - d - t.origin) /. 1000.0)
        (float_of_int d /. 1000.0)
        t.words.{i})
