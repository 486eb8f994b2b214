module Point = Afex_faultspace.Point
module Test_case = Afex.Test_case
module Explorer = Afex.Explorer
module Index = Afex_quality.Index

let src = Logs.Src.create "afex.checkpoint" ~doc:"Campaign snapshots and journal"

module Log = (val Logs.src_log src : Logs.LOG)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* {2 Fields}

   All three files are built from {!Message}'s field codecs, the ones
   the wire uses. Decoders read field after field and raise [Bad] at
   the first malformed one; the entry points turn it into [Error]. *)

let get what = function Ok v -> v | Error m -> bad "%s: %s" what m
let uv what c = get what (Message.read_uv c)
let f64 what c = get what (Message.read_f64 c)
let str what c = get what (Message.read_str c)

(* A list is its length, then its elements. Every element takes at
   least one byte, so a length beyond the bytes left is damage, not a
   request for a giant list. *)
let add_list add b l =
  Message.add_uv b (List.length l);
  List.iter (add b) l

let read_n n read c =
  if n > Message.remaining c then bad "%d elements overrun the record" n;
  let rec go acc k = if k = 0 then List.rev acc else go (read c :: acc) (k - 1) in
  go [] n

let read_list read c = read_n (uv "list length" c) read c
let add_ints b l = add_list Message.add_uv b l
let read_ints what c = read_list (uv what) c
let add_int_array b a = add_ints b (Array.to_list a)
let read_int_array what c = Array.of_list (read_ints what c)

let add_pair b (x, y) =
  Message.add_uv b x;
  Message.add_uv b y

let read_pair what c =
  let x = uv what c in
  (x, uv what c)

(* An optional count is 0 when absent, else the count plus one. *)
let add_opt b = function
  | None -> Message.add_uv b 0
  | Some n -> Message.add_uv b (n + 1)

let read_opt what c = match uv what c with 0 -> None | n -> Some (n - 1)
(* A point goes out as its components, the bytes of [add_ints] over
   [Point.to_list]. *)
let add_point b p =
  let n = Point.dim p in
  Message.add_uv b n;
  for i = 0 to n - 1 do
    Message.add_uv b (Point.get p i)
  done

let read_point what c =
  match read_ints what c with [] -> bad "%s: empty point" what | l -> Point.of_list l

let rec add_strs b = function
  | [] -> ()
  | s :: rest ->
      Message.add_str b s;
      add_strs b rest

let add_stack b = function
  | None -> Message.add_uv b 0
  | Some frames ->
      Message.add_uv b (List.length frames + 1);
      add_strs b frames

let read_stack what c =
  Option.map (fun n -> read_n n (str what) c) (read_opt what c)

(* {2 The record codec}

   One [Test_case.t]: the snapshot's records and the record log's. *)

let add_record b (c : Test_case.t) =
  add_point b c.point;
  Message.add_uv b c.birth;
  add_opt b c.mutated_axis;
  Message.add_status b c.status ~triggered:c.triggered;
  Message.add_uv b c.new_blocks;
  Message.add_f64 b c.impact;
  Message.add_f64 b c.fitness;
  Message.add_f64 b c.duration_ms;
  Message.add_fault b c.fault;
  add_stack b c.injection_stack;
  add_stack b c.crash_stack

let read_record c =
  let point = read_point "record point" c in
  let birth = uv "record birth" c in
  let mutated_axis = read_opt "mutated axis" c in
  let status, triggered = get "record status" (Message.read_status c) in
  let new_blocks = uv "record new blocks" c in
  let impact = f64 "record impact" c in
  let fitness = f64 "record fitness" c in
  let duration_ms = f64 "record duration" c in
  let fault = get "record fault" (Message.read_fault c) in
  let injection_stack = read_stack "injection stack" c in
  let crash_stack = read_stack "crash stack" c in
  {
    Test_case.point; fault; status; triggered; impact; fitness; birth;
    mutated_axis; injection_stack; crash_stack; new_blocks; duration_ms;
  }

let u32 s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFF_FFFF
let add_u32 b v = Buffer.add_int32_be b (Int32.of_int v)

module Snapshot = struct
  type mark = { logged : int; log_bytes : int }

  type t = {
    meta : (string * string) list;
    mark : mark;
    explorer : Explorer.Snapshot.t;
  }

  (* The header line, then one fixed-order sequence of fields and a
     checksum of everything before it. Other versions are refused by the
     header rather than resumed against state they do not describe. *)
  let header = "afex-checkpoint 9"

  (* An index's distinct traces and partition; which test observed
     which trace is in the records, and restore rebuilds it. *)
  let add_index b (d : Index.dump) =
    add_list add_int_array b d.d_entries;
    add_ints b d.d_parent

  let read_index what c =
    let d_entries = read_list (read_int_array what) c in
    { Index.d_entries; d_parent = read_ints what c }

  let encode t =
    let b = Buffer.create 4096 in
    Buffer.add_string b header;
    Buffer.add_char b '\n';
    add_list
      (fun b (k, v) ->
        Message.add_str b k;
        Message.add_str b v)
      b t.meta;
    add_pair b (t.mark.logged, t.mark.log_bytes);
    let x = t.explorer in
    Message.add_i64 b x.rng_state;
    List.iter (Message.add_uv b)
      [ x.issued; x.iterations; x.failed; x.crashed; x.hung; x.triggered ];
    Message.add_f64 b x.simulated_ms;
    Message.add_uv b x.cursor_consumed;
    Message.add_coverage b x.covered;
    add_list add_record b x.records;
    add_ints b x.queue;
    add_list add_point b x.seeds;
    add_list (add_list Message.add_f64) b (Array.to_list x.sensitivity);
    add_list Message.add_str b (Array.to_list x.intern_frames);
    add_list add_int_array b x.feedback;
    add_index b x.failure_index;
    add_index b x.crash_index;
    add_opt b (Option.map fst x.rarity);
    Option.iter (fun (_, pairs) -> add_list add_pair b pairs) x.rarity;
    add_list add_pair b x.rare_blocks;
    let m = x.mutator in
    List.iter (Message.add_uv b)
      [ m.proposals; m.masked; m.rejects; m.masked_rejects; m.random_fallbacks ];
    add_u32 b (Transport.checksum (Buffer.contents b));
    Buffer.contents b

  let parse c =
    let meta =
      read_list
        (fun c ->
          let k = str "meta key" c in
          (k, str "meta value" c))
        c
    in
    let logged, log_bytes = read_pair "record-log mark" c in
    let rng_state = get "explorer rng" (Message.read_i64 c) in
    let issued = uv "issued" c in
    let iterations = uv "iterations" c in
    let failed = uv "failed" c in
    let crashed = uv "crashed" c in
    let hung = uv "hung" c in
    let triggered = uv "triggered" c in
    let simulated_ms = f64 "simulated ms" c in
    let cursor_consumed = uv "cursor" c in
    let covered = get "coverage" (Message.read_coverage c) in
    let records = read_list read_record c in
    let queue = read_ints "queue" c in
    let seeds = read_list (read_point "seed") c in
    let sensitivity = read_list (read_list (f64 "sensitivity sample")) c in
    let intern_frames = read_list (str "intern frame") c in
    let feedback = read_list (read_int_array "feedback trace") c in
    let failure_index = read_index "failure index" c in
    let crash_index = read_index "crash index" c in
    let rarity =
      Option.map
        (fun tests -> (tests, read_list (read_pair "rarity histogram") c))
        (read_opt "rarity tests" c)
    in
    let rare_blocks = read_list (read_pair "rare blocks") c in
    let proposals = uv "mutator proposals" c in
    let masked = uv "mutator masked" c in
    let rejects = uv "mutator rejects" c in
    let masked_rejects = uv "mutator masked rejects" c in
    let random_fallbacks = uv "mutator fallbacks" c in
    if Message.remaining c > 0 then bad "%d trailing bytes" (Message.remaining c);
    {
      meta;
      mark = { logged; log_bytes };
      explorer =
        {
          Explorer.Snapshot.rng_state; issued; iterations; failed; crashed;
          hung; triggered; simulated_ms; cursor_consumed; covered; records;
          queue; seeds; sensitivity = Array.of_list sensitivity;
          intern_frames = Array.of_list intern_frames; feedback;
          failure_index; crash_index; rarity; rare_blocks;
          mutator =
            {
              Afex.Mutator.proposals; masked; rejects; masked_rejects;
              random_fallbacks;
            };
        };
    }

  let decode contents =
    let err m = Error ("checkpoint snapshot: " ^ m) in
    let len = String.length contents in
    let start = String.length header + 1 in
    if len = 0 then err "empty file"
    else if not (String.starts_with ~prefix:(header ^ "\n") contents) then
      let line = Option.value (String.index_opt contents '\n') ~default:len in
      err
        (Printf.sprintf "bad header %S (expected %S)"
           (String.sub contents 0 (min line 64))
           header)
    else if len < start + 4 then err "truncated (no checksum trailer)"
    else
      let data = String.sub contents 0 (len - 4) in
      if Transport.checksum data <> u32 contents (len - 4) then
        err "checksum mismatch — the snapshot is corrupt"
      else
        try Ok (parse { Message.data; pos = start }) with Bad m -> err m
end

(* {2 Record framing}

   The journal and the record log frame each record alike: a 12-byte
   header (the payload's length, the checksum of those 4 length bytes
   and the checksum of the payload, each 4 bytes big-endian), then the
   payload. The length has a check of its own, so a damaged length
   inside a file is refused as damage instead of passing for a record
   that the end of the file cut off. *)

let header_bytes = 12

let set_u32 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr (v land 0xff))

(* A handle frames its records in place: [payload] takes the record
   being framed, [out] the framed records that the next write sends.
   Both are reused, so once they have grown framing allocates nothing. *)
module Framer = struct
  type t = { payload : Buffer.t; mutable out : Bytes.t; mutable len : int }

  let create () =
    { payload = Buffer.create 256; out = Bytes.create 1024; len = 0 }

  let start f =
    Buffer.clear f.payload;
    f.payload

  let finish f =
    let n = Buffer.length f.payload and pos = f.len in
    let stop = pos + header_bytes + n in
    if stop > Bytes.length f.out then begin
      let grown = Bytes.create (max stop (2 * Bytes.length f.out)) in
      Bytes.blit f.out 0 grown 0 pos;
      f.out <- grown
    end;
    let out = f.out in
    set_u32 out pos n;
    set_u32 out (pos + 4) (Transport.checksum_bytes out ~pos ~len:4);
    Buffer.blit f.payload 0 out (pos + header_bytes) n;
    set_u32 out (pos + 8)
      (Transport.checksum_bytes out ~pos:(pos + header_bytes) ~len:n);
    f.len <- stop

  let length f = f.len
  let contents f = Bytes.sub_string f.out 0 f.len

  (* Send every framed record in one [write], and start afresh. *)
  let write what fd f =
    let n = f.len in
    f.len <- 0;
    if Unix.write fd f.out 0 n <> n then
      failwith ("short " ^ what ^ " write")
end

(* The record at [pos], decoded: [`Cut] when the end of [s] cuts it
   off, [`Bad (reason, next)] when its payload fails the checksum or
   [decode]. A damaged length is [Bad], since nothing after it can be
   located. *)
let unframe decode s pos =
  let left = String.length s - pos in
  if left < header_bytes then `Cut
  else begin
    let n = u32 s pos in
    if u32 s (pos + 4) <> Transport.checksum (String.sub s pos 4) then
      bad "damaged record length at byte %d" pos;
    if left - header_bytes < n then `Cut
    else
      let next = pos + header_bytes + n in
      let payload = String.sub s (pos + header_bytes) n in
      match
        if u32 s (pos + 8) <> Transport.checksum payload then
          bad "checksum mismatch";
        decode payload
      with
      | v -> `Record (v, next)
      | exception Bad m -> `Bad (m, next)
  end

(* {2 The write-ahead journal}

   One framed record per journaled outcome: the candidate's point, as
   the record codec writes it, then the outcome as one wire reply
   ({!Message.V2.encode_outcome}: the bytes of {!Message.V2.encode_reply}
   with fresh codec state), so each record decodes on its own. The pool
   stages outcomes in sequence order and flushes each group in one
   write, so a well-formed journal is strictly seq-ascending. *)

let read_outcome payload =
  let c = { Message.data = payload; pos = 0 } in
  let point = read_point "journal point" c in
  match
    Message.V2.decode_replies (Message.V2.client_dec ())
      (String.sub payload c.pos (Message.remaining c))
  with
  | Ok [ Message.Scenario_result r ] ->
      if r.Message.seq < 1 then bad "journal outcome: bad sequence number";
      (r.Message.seq, point, r)
  | Ok _ -> bad "journal record: not one outcome"
  | Error m -> bad "journal outcome: %s" m

(* Scan the journal: records decode in order; one cut off by the end of
   the file, or a bad FINAL record, is the crash signature and is
   dropped (the truncation point is returned), while damage anywhere
   earlier is refused — the journal is append-only, so only its tail
   can legitimately be half-written. *)
let parse_wal contents =
  let len = String.length contents in
  let torn acc pos m =
    Log.warn (fun f -> f "dropping torn journal tail: %s" m);
    (List.rev acc, pos)
  in
  let rec go acc k pos =
    if pos = len then (List.rev acc, pos)
    else
      match unframe read_outcome contents pos with
      | `Record (r, next) -> go (r :: acc) (k + 1) next
      | `Cut -> torn acc pos "a record runs past the end of the file"
      | `Bad (m, next) when next = len -> torn acc pos m
      | `Bad (m, _) -> bad "journal record %d: %s" k m
  in
  go [] 1 0

(* The replayable tail: outcomes with [seq <= since] are stale — they
   were released before the snapshot and survive only inside the crash
   window between the snapshot rename and the journal truncate — and
   are dropped. What remains must be exactly [since+1, since+2, ...]:
   a gap means a lost append (the journal is broken, refuse), and a
   duplicate or regression means two writers or replayed corruption. *)
let wal_tail ~since records =
  let kept =
    List.filter (fun (seq, _, _) -> seq > since) records
  in
  List.iteri
    (fun i (seq, _, _) ->
      let expect = since + 1 + i in
      if seq = expect then ()
      else if seq < expect then bad "journal repeats iteration %d" seq
      else bad "journal is missing iteration %d" expect)
    kept;
  kept

(* {2 The record log}

   [records.log] holds records 1..n in birth order, one framed record
   each (the snapshot's record codec). A record is logged once it is
   older than every queued test: only aging changes a record (its
   fitness), only queued records age, and no record re-enters the
   queue, so a logged record is final. *)

(* The highest birth whose record is final: the oldest queued birth
   minus one, or every record when nothing is queued (the random and
   exhaustive strategies never queue). *)
let frontier (x : Explorer.Snapshot.t) =
  match x.Explorer.Snapshot.queue with
  | [] -> x.Explorer.Snapshot.iterations
  | q -> List.fold_left min max_int q - 1

let read_logged payload =
  let c = { Message.data = payload; pos = 0 } in
  let r = read_record c in
  if Message.remaining c > 0 then bad "trailing bytes";
  r

(* The records a mark vouches for, newest first: exactly [logged] whole
   records in the first [log_bytes] bytes, births 1..logged. Bytes past
   the mark are not read — they are a crash's half-finished append. *)
let parse_log contents (m : Snapshot.mark) =
  if String.length contents < m.log_bytes then
    bad "records.log holds %d bytes, short of the %d its mark vouches for"
      (String.length contents) m.log_bytes;
  let rec go acc n pos =
    if pos = m.log_bytes then begin
      if n <> m.logged then
        bad "records.log holds %d records where the mark vouches for %d" n
          m.logged;
      acc
    end
    else
      match unframe read_logged contents pos with
      | `Record ((c : Test_case.t), next) when next <= m.log_bytes ->
          if c.birth <> n + 1 then
            bad "records.log record %d carries birth %d" (n + 1) c.birth;
          go (c :: acc) (n + 1) next
      | `Record _ | `Cut -> bad "records.log: the mark ends inside a record"
      | `Bad (msg, _) -> bad "records.log record %d: %s" (n + 1) msg
  in
  go [] 0 0

(* {2 The checkpoint handle} *)

type hooks = {
  on_append : int -> unit;
  before_rename : unit -> unit;
  after_rename : unit -> unit;
}

let no_hooks =
  {
    on_append = (fun _ -> ());
    before_rename = (fun () -> ());
    after_rename = (fun () -> ());
  }

type t = {
  cp_dir : string;
  every : int;
  cp_meta : (string * string) list;
  hooks : hooks;
  wal_fd : Unix.file_descr;
  log_fd : Unix.file_descr;
  record_dict : Message.V2.record_dict;
  framer : Framer.t;
  mutable mark : Snapshot.mark;  (** what [records.log] holds *)
  mutable staged : int;  (** journal records framed and not yet written *)
  mutable appends : int;
  mutable writes : int;  (** journal writes *)
  mutable snapshots : int;
  mutable last_snapshot_iterations : int;
  mutable replay : (int * Point.t * Message.run_report) list;
  was_resumed : bool;
  n_replayed_records : int;
  loaded : Snapshot.t option;
}

let snapshot_path dir = Filename.concat dir "snapshot.afex"
let wal_path dir = Filename.concat dir "wal.log"
let log_path dir = Filename.concat dir "records.log"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let open_append ?(flags = []) path =
  Unix.openfile path
    ([ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] @ flags)
    0o644

let start ?(hooks = no_hooks) ?(every = 500) ~dir meta =
  if every < 1 then Error "checkpoint: snapshot cadence must be at least 1"
  else begin
    try
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      if Sys.file_exists (snapshot_path dir) then
        Error
          (Printf.sprintf
             "%s already holds a checkpoint; pass --resume %s to continue it"
             dir dir)
      else begin
        let wal_fd = open_append ~flags:[ Unix.O_TRUNC ] (wal_path dir) in
        let log_fd = open_append ~flags:[ Unix.O_TRUNC ] (log_path dir) in
        Ok
          {
            cp_dir = dir; every; cp_meta = meta; hooks; wal_fd; log_fd;
            record_dict = Message.V2.record_dict (); framer = Framer.create ();
            mark = { Snapshot.logged = 0; log_bytes = 0 }; staged = 0;
            appends = 0; writes = 0; snapshots = 0;
            last_snapshot_iterations = 0; replay = []; was_resumed = false;
            n_replayed_records = 0; loaded = None;
          }
      end
    with Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "checkpoint: %s %s: %s" fn arg (Unix.error_message e))
  end

let verify_meta ~current ~stored =
  let sort = List.sort compare in
  if sort current = sort stored then Ok ()
  else begin
    let show = function Some v -> v | None -> "(absent)" in
    let mismatch =
      List.find_opt
        (fun (k, v) -> List.assoc_opt k stored <> Some v)
        current
    in
    match mismatch with
    | Some (k, v) ->
        Error
          (Printf.sprintf
             "checkpoint was taken with %s=%s but this invocation has %s=%s — \
              flags that shape the search must match to resume"
             k
             (show (List.assoc_opt k stored))
             k v)
    | None -> (
        match
          List.find_opt (fun (k, v) -> List.assoc_opt k current <> Some v) stored
        with
        | Some (k, v) ->
            Error
              (Printf.sprintf
                 "checkpoint was taken with %s=%s, which this invocation does \
                  not set — flags that shape the search must match to resume"
                 k v)
        | None -> Error "checkpoint metadata repeats a key: the snapshot is corrupt")
  end

(* The snapshot with the logged records put back in front of its own,
   after checking that the log holds what the mark vouches for. *)
let merge_log ~dir (snap : Snapshot.t) =
  let m = snap.Snapshot.mark in
  let path = log_path dir in
  let contents =
    if Sys.file_exists path then read_file path
    else if m.Snapshot.log_bytes > 0 then bad "records.log is missing"
    else ""
  in
  let logged_rev = parse_log contents m in
  let x = snap.Snapshot.explorer in
  List.iter
    (fun b ->
      if b <= m.Snapshot.logged then
        bad "queued test %d is already frozen in records.log" b)
    x.Explorer.Snapshot.queue;
  {
    snap with
    Snapshot.explorer =
      {
        x with
        Explorer.Snapshot.records =
          List.rev_append logged_rev x.Explorer.Snapshot.records;
      };
  }

let resume ?(hooks = no_hooks) ?(every = 500) ~dir meta =
  let ( let* ) = Result.bind in
  if every < 1 then Error "checkpoint: snapshot cadence must be at least 1"
  else if not (Sys.file_exists (snapshot_path dir)) then
    Error (Printf.sprintf "%s holds no checkpoint snapshot to resume" dir)
  else begin
    try
      let* snap = Snapshot.decode (read_file (snapshot_path dir)) in
      let* () = verify_meta ~current:meta ~stored:snap.Snapshot.meta in
      let* merged =
        try Ok (merge_log ~dir snap) with Bad m -> Error ("checkpoint: " ^ m)
      in
      let wal = wal_path dir in
      let contents = if Sys.file_exists wal then read_file wal else "" in
      let* replay, valid_end =
        try
          let records, valid_end = parse_wal contents in
          let since = snap.Snapshot.explorer.Explorer.Snapshot.iterations in
          Ok (wal_tail ~since records, valid_end)
        with Bad m -> Error ("checkpoint: " ^ m)
      in
      let wal_fd = open_append wal in
      Unix.ftruncate wal_fd valid_end;
      (* Bytes past the mark are an append the snapshot never vouched
         for (a crash before its rename); the next snapshot rewrites
         them. *)
      let log_fd = open_append (log_path dir) in
      Unix.ftruncate log_fd snap.Snapshot.mark.Snapshot.log_bytes;
      Log.info (fun f ->
          f
            "resuming %s: %d iterations snapshotted (%d in the record log), %d \
             journaled outcomes to replay"
            dir snap.Snapshot.explorer.Explorer.Snapshot.iterations
            snap.Snapshot.mark.Snapshot.logged (List.length replay));
      Ok
        {
          cp_dir = dir; every; cp_meta = meta; hooks; wal_fd; log_fd;
          record_dict = Message.V2.record_dict (); framer = Framer.create ();
          mark = snap.Snapshot.mark; staged = 0; appends = 0; writes = 0;
          snapshots = 0;
          last_snapshot_iterations =
            snap.Snapshot.explorer.Explorer.Snapshot.iterations;
          replay; was_resumed = true;
          n_replayed_records = List.length replay; loaded = Some merged;
        }
    with
    | Unix.Unix_error (e, fn, arg) ->
        Error (Printf.sprintf "checkpoint: %s %s: %s" fn arg (Unix.error_message e))
    | Sys_error m -> Error ("checkpoint: " ^ m)
  end

let resumed t = t.was_resumed
let dir t = t.cp_dir
let loaded_snapshot t = t.loaded

let next_replay t =
  match t.replay with
  | [] -> None
  | r :: rest ->
      t.replay <- rest;
      Some r

let replay_pending t = t.replay <> []

let due t ~iterations =
  t.replay = [] && iterations - t.last_snapshot_iterations >= t.every

let stage t ~point ~seq outcome =
  let b = Framer.start t.framer in
  add_point b point;
  Message.V2.encode_outcome t.record_dict b ~seq outcome;
  Framer.finish t.framer;
  t.staged <- t.staged + 1

let flush t =
  let n = t.staged in
  if n > 0 then begin
    t.staged <- 0;
    Framer.write "journal" t.wal_fd t.framer;
    t.writes <- t.writes + 1;
    for _ = 1 to n do
      t.appends <- t.appends + 1;
      t.hooks.on_append t.appends
    done
  end

(* Append the records that became final since the last snapshot, in
   one write; the rest of the capture stays in the snapshot. *)
let freeze t (x : Explorer.Snapshot.t) =
  let f = frontier x in
  let rec go n = function
    | (c : Test_case.t) :: rest when c.birth <= f ->
        add_record (Framer.start t.framer) c;
        Framer.finish t.framer;
        go (n + 1) rest
    | live -> (n, live)
  in
  let n, live = go 0 x.Explorer.Snapshot.records in
  if n > 0 then begin
    let bytes = Framer.length t.framer in
    Framer.write "record log" t.log_fd t.framer;
    t.mark <-
      {
        Snapshot.logged = t.mark.Snapshot.logged + n;
        log_bytes = t.mark.Snapshot.log_bytes + bytes;
      }
  end;
  live

let write_snapshot t explorer =
  if t.staged > 0 then
    invalid_arg "Checkpoint.write_snapshot: journal records staged, not flushed";
  let x = Explorer.capture ~since:t.mark.Snapshot.logged explorer in
  let live = freeze t x in
  t.hooks.before_rename ();
  let text =
    Snapshot.encode
      {
        Snapshot.meta = t.cp_meta;
        mark = t.mark;
        explorer = { x with Explorer.Snapshot.records = live };
      }
  in
  let tmp = Filename.concat t.cp_dir "snapshot.tmp" in
  let oc = open_out_bin tmp in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
  Unix.rename tmp (snapshot_path t.cp_dir);
  t.hooks.after_rename ();
  Unix.ftruncate t.wal_fd 0;
  t.snapshots <- t.snapshots + 1;
  t.last_snapshot_iterations <- x.Explorer.Snapshot.iterations;
  Log.debug (fun f ->
      f "snapshot at %d iterations, %d records logged"
        x.Explorer.Snapshot.iterations t.mark.Snapshot.logged)

type stats = {
  was_resumed : bool;
  snapshots_written : int;
  wal_appends : int;
  wal_writes : int;
  replayed_records : int;
}

let stats (t : t) =
  {
    was_resumed = t.was_resumed;
    snapshots_written = t.snapshots;
    wal_appends = t.appends;
    wal_writes = t.writes;
    replayed_records = t.n_replayed_records;
  }

let close t =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.wal_fd; t.log_fd ]
