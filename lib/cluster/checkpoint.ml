module Point = Afex_faultspace.Point
module Test_case = Afex.Test_case
module Explorer = Afex.Explorer
module Index = Afex_quality.Index

let src = Logs.Src.create "afex.checkpoint" ~doc:"Campaign snapshots and journal"

module Log = (val Logs.src_log src : Logs.LOG)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* {2 Field helpers}

   Every token is either produced by [Message.escape] (no spaces, no
   commas) or is a number, so whole-line [split_on_char ' '] and
   comma-joined sub-lists never collide with payload bytes. *)

let nat what s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> v
  | _ -> bad "%s: bad integer %S" what s

let fl what s =
  match float_of_string_opt s with Some v -> v | None -> bad "%s: bad float %S" what s

let hex64 what s =
  match Int64.of_string_opt ("0x" ^ s) with
  | Some v -> v
  | None -> bad "%s: bad hex word %S" what s

let ints_to = function
  | [] -> "-"
  | l -> String.concat "," (List.map string_of_int l)

let ints_of what = function
  | "-" -> []
  | s -> List.map (nat what) (String.split_on_char ',' s)

let floats_to = function
  | [] -> "-"
  | l -> String.concat "," (List.map (Printf.sprintf "%h") l)

let floats_of what = function
  | "-" -> []
  | s -> List.map (fl what) (String.split_on_char ',' s)

let unescape what s =
  match Message.unescape s with Ok v -> v | Error m -> bad "%s: %s" what m

let point_of_token what s =
  let key = unescape what s in
  if key = "" then bad "%s: empty point" what;
  Point.of_list (List.map (nat what) (String.split_on_char ',' key))

let opt_axis = function
  | None -> "-"
  | Some a -> string_of_int a

let axis_of = function
  | "-" -> None
  | s -> Some (nat "mutated axis" s)

let split2 s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

module Snapshot = struct
  type mark = { logged : int; log_bytes : int }

  type t = {
    meta : (string * string) list;
    master_state : int64;
    mark : mark;
    explorer : Explorer.Snapshot.t;
  }

  (* Version 5: the globals line carries only the master RNG position
     (version 4 also kept a window-controller line and a round count).
     Version 4 moved the records older than every queued test out to the
     append-only [records.log] and added the mark that vouches for a
     prefix of it. Older snapshots are refused by the header rather than
     resumed against state they do not describe. *)
  let header = "afex-checkpoint 5"

  let record_to_line (c : Test_case.t) =
    Printf.sprintf "r %s %d %s %s %s %d %h %h %h %s %s %s"
      (Message.escape (Point.key c.Test_case.point))
      c.birth (opt_axis c.mutated_axis)
      (Message.status_token c.status)
      (if c.triggered then "T" else "N")
      c.new_blocks c.impact c.fitness c.duration_ms
      (Message.encode_fault c.fault)
      (Message.encode_stack c.injection_stack)
      (Message.encode_stack c.crash_stack)

  let record_of_tokens = function
    | [
        point; birth; axis; status; triggered; new_blocks; impact; fitness; dur;
        fault; istack; cstack;
      ] ->
        let status =
          match Message.status_of_token status with
          | Ok s -> s
          | Error m -> bad "record status: %s" m
        in
        let fault =
          match Message.decode_fault fault with
          | Ok f -> f
          | Error m -> bad "record fault: %s" m
        in
        let stack what s =
          match Message.decode_stack s with
          | Ok v -> v
          | Error m -> bad "record %s: %s" what m
        in
        let triggered =
          match triggered with
          | "T" -> true
          | "N" -> false
          | s -> bad "record triggered flag: %S" s
        in
        {
          Test_case.point = point_of_token "record point" point;
          fault;
          status;
          triggered;
          impact = fl "record impact" impact;
          fitness = fl "record fitness" fitness;
          birth = nat "record birth" birth;
          mutated_axis = axis_of axis;
          injection_stack = stack "injection stack" istack;
          crash_stack = stack "crash stack" cstack;
          new_blocks = nat "record new blocks" new_blocks;
          duration_ms = fl "record duration" dur;
        }
    | _ -> bad "record line: expected 12 fields"

  let index_to_lines buf prefix (d : Index.dump) =
    let line fmt =
      Printf.ksprintf
        (fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        fmt
    in
    List.iter
      (fun e ->
        line "%se %d %s" prefix (Array.length e) (ints_to (Array.to_list e)))
      d.Index.d_entries;
    line "%sp %s" prefix (ints_to d.Index.d_parent);
    line "%si %s" prefix (ints_to d.Index.d_items)

  let encode t =
    let buf = Buffer.create 4096 in
    let line fmt =
      Printf.ksprintf
        (fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        fmt
    in
    line "%s" header;
    List.iter
      (fun (k, v) -> line "m %s %s" (Message.escape k) (Message.escape v))
      t.meta;
    line "g %Lx" t.master_state;
    let x = t.explorer in
    line "x %Lx %d %d %d %d %d %d %h %d" x.Explorer.Snapshot.rng_state x.issued
      x.iterations x.failed x.crashed x.hung x.triggered x.simulated_ms
      x.cursor_consumed;
    line "l %d %d" t.mark.logged t.mark.log_bytes;
    line "c %s" (Message.encode_coverage x.covered);
    List.iter
      (fun c ->
        Buffer.add_string buf (record_to_line c);
        Buffer.add_char buf '\n')
      x.records;
    line "q %s" (ints_to x.queue);
    List.iter (fun p -> line "d %s" (Message.escape (Point.key p))) x.seeds;
    Array.iteri
      (fun axis samples ->
        line "v %d %d %s" axis (List.length samples) (floats_to samples))
      x.sensitivity;
    Array.iter (fun f -> line "f %s" (Message.escape f)) x.intern_frames;
    List.iter
      (fun toks ->
        line "w %d %s" (Array.length toks) (ints_to (Array.to_list toks)))
      x.feedback;
    index_to_lines buf "F" x.failure_index;
    index_to_lines buf "C" x.crash_index;
    (match x.rarity with
    | None -> ()
    | Some (tests, pairs) ->
        line "y %d %s %s" tests
          (ints_to (List.map fst pairs))
          (ints_to (List.map snd pairs));
        line "Y %s %s"
          (ints_to (List.map fst x.rare_blocks))
          (ints_to (List.map snd x.rare_blocks)));
    (let m = x.mutator in
     line "M %d %d %d %d %d" m.Afex.Mutator.proposals m.Afex.Mutator.masked
       m.Afex.Mutator.rejects m.Afex.Mutator.masked_rejects
       m.Afex.Mutator.random_fallbacks);
    let body = Buffer.contents buf in
    body ^ Printf.sprintf "k %08x\n" (Transport.checksum body)

  (* Mutable accumulator for the one-pass body parse. *)
  type partial = {
    mutable p_meta_rev : (string * string) list;
    mutable p_globals : int64 option;
    mutable p_x : (int64 * int * int * int * int * int * int * float * int) option;
    mutable p_mark : mark option;
    mutable p_covered : int list option;
    mutable p_records_rev : Test_case.t list;
    mutable p_queue : int list option;
    mutable p_seeds_rev : Point.t list;
    mutable p_sens_rev : float list list;
    mutable p_frames_rev : string list;
    mutable p_fb_rev : int array list;
    mutable p_fe_rev : int array list;
    mutable p_fp : int list option;
    mutable p_fi : int list option;
    mutable p_ce_rev : int array list;
    mutable p_cp : int list option;
    mutable p_ci : int list option;
    mutable p_rarity : (int * (int * int) list) option;
    mutable p_rareb : (int * int) list option;
    mutable p_mut : Afex.Mutator.stats option;
  }

  let tokens_array what n toks =
    let l = ints_of what toks in
    if List.length l <> n then bad "%s: expected %d tokens" what n;
    Array.of_list l

  let parse_line p line =
    match String.split_on_char ' ' line with
    | "m" :: [ k; v ] ->
        p.p_meta_rev <- (unescape "meta key" k, unescape "meta value" v) :: p.p_meta_rev
    | "g" :: [ master ] ->
        if p.p_globals <> None then bad "duplicate globals line";
        p.p_globals <- Some (hex64 "master rng" master)
    | "x" :: [ rng; issued; iter; failed; crashed; hung; trig; sim; cursor ] ->
        if p.p_x <> None then bad "duplicate explorer line";
        p.p_x <-
          Some
            ( hex64 "explorer rng" rng,
              nat "issued" issued,
              nat "iterations" iter,
              nat "failed" failed,
              nat "crashed" crashed,
              nat "hung" hung,
              nat "triggered" trig,
              fl "simulated ms" sim,
              nat "cursor" cursor )
    | "l" :: [ logged; bytes ] ->
        if p.p_mark <> None then bad "duplicate record-log mark";
        p.p_mark <-
          Some
            {
              logged = nat "logged records" logged;
              log_bytes = nat "log bytes" bytes;
            }
    | "c" :: [ cov ] -> (
        if p.p_covered <> None then bad "duplicate coverage line";
        match Message.decode_coverage cov with
        | Ok l -> p.p_covered <- Some l
        | Error m -> bad "coverage: %s" m)
    | "r" :: rest -> p.p_records_rev <- record_of_tokens rest :: p.p_records_rev
    | "q" :: [ ids ] ->
        if p.p_queue <> None then bad "duplicate queue line";
        p.p_queue <- Some (ints_of "queue" ids)
    | "d" :: [ pt ] -> p.p_seeds_rev <- point_of_token "seed" pt :: p.p_seeds_rev
    | "v" :: [ axis; n; samples ] ->
        let axis = nat "sensitivity axis" axis in
        if axis <> List.length p.p_sens_rev then
          bad "sensitivity axis %d out of order" axis;
        let l = floats_of "sensitivity samples" samples in
        if List.length l <> nat "sensitivity count" n then
          bad "sensitivity axis %d: sample count mismatch" axis;
        p.p_sens_rev <- l :: p.p_sens_rev
    | "f" :: [ frame ] ->
        p.p_frames_rev <- unescape "intern frame" frame :: p.p_frames_rev
    | "w" :: [ n; toks ] ->
        p.p_fb_rev <-
          tokens_array "feedback trace" (nat "feedback count" n) toks :: p.p_fb_rev
    | "Fe" :: [ n; toks ] ->
        p.p_fe_rev <-
          tokens_array "failure-index entry" (nat "entry count" n) toks
          :: p.p_fe_rev
    | "Fp" :: [ l ] ->
        if p.p_fp <> None then bad "duplicate failure-index parents";
        p.p_fp <- Some (ints_of "failure-index parents" l)
    | "Fi" :: [ l ] ->
        if p.p_fi <> None then bad "duplicate failure-index items";
        p.p_fi <- Some (ints_of "failure-index items" l)
    | "Ce" :: [ n; toks ] ->
        p.p_ce_rev <-
          tokens_array "crash-index entry" (nat "entry count" n) toks :: p.p_ce_rev
    | "Cp" :: [ l ] ->
        if p.p_cp <> None then bad "duplicate crash-index parents";
        p.p_cp <- Some (ints_of "crash-index parents" l)
    | "Ci" :: [ l ] ->
        if p.p_ci <> None then bad "duplicate crash-index items";
        p.p_ci <- Some (ints_of "crash-index items" l)
    | "y" :: [ tests; blocks; counts ] ->
        if p.p_rarity <> None then bad "duplicate rarity line";
        let b = ints_of "rarity blocks" blocks
        and c = ints_of "rarity counts" counts in
        if List.length b <> List.length c then
          bad "rarity histogram: %d blocks against %d counts" (List.length b)
            (List.length c);
        p.p_rarity <- Some (nat "rarity tests" tests, List.combine b c)
    | "Y" :: [ births; blocks ] ->
        if p.p_rareb <> None then bad "duplicate rare-block line";
        let b = ints_of "rare-block births" births
        and k = ints_of "rare-block ids" blocks in
        if List.length b <> List.length k then
          bad "rare blocks: %d births against %d blocks" (List.length b)
            (List.length k);
        p.p_rareb <- Some (List.combine b k)
    | "M" :: [ pr; ma; re; mr; rf ] ->
        if p.p_mut <> None then bad "duplicate mutator line";
        p.p_mut <-
          Some
            {
              Afex.Mutator.proposals = nat "mutator proposals" pr;
              masked = nat "mutator masked" ma;
              rejects = nat "mutator rejects" re;
              masked_rejects = nat "mutator masked rejects" mr;
              random_fallbacks = nat "mutator fallbacks" rf;
            }
    | tag :: _ -> bad "unknown line tag %S" tag
    | [] -> bad "empty line"

  let parse_body body =
    match String.split_on_char '\n' body with
    | first :: rest when first = header ->
        let p =
          {
            p_meta_rev = []; p_globals = None; p_x = None;
            p_mark = None; p_covered = None; p_records_rev = []; p_queue = None;
            p_seeds_rev = []; p_sens_rev = []; p_frames_rev = []; p_fb_rev = [];
            p_fe_rev = []; p_fp = None; p_fi = None; p_ce_rev = []; p_cp = None;
            p_ci = None; p_rarity = None; p_rareb = None; p_mut = None;
          }
        in
        List.iter (fun line -> if line <> "" then parse_line p line) rest;
        let req what = function Some v -> v | None -> bad "missing %s" what in
        let master_state = req "globals line" p.p_globals in
        let rng_state, issued, iterations, failed, crashed, hung, triggered,
            simulated_ms, cursor_consumed =
          req "explorer line" p.p_x
        in
        {
          meta = List.rev p.p_meta_rev;
          master_state;
          mark = req "record-log mark" p.p_mark;
          explorer =
            {
              Explorer.Snapshot.rng_state; issued; iterations; failed; crashed;
              hung; triggered; simulated_ms; cursor_consumed;
              covered = req "coverage line" p.p_covered;
              records = List.rev p.p_records_rev;
              queue = req "queue line" p.p_queue;
              seeds = List.rev p.p_seeds_rev;
              sensitivity = Array.of_list (List.rev p.p_sens_rev);
              intern_frames = Array.of_list (List.rev p.p_frames_rev);
              feedback = List.rev p.p_fb_rev;
              failure_index =
                {
                  Index.d_entries = List.rev p.p_fe_rev;
                  d_parent = req "failure-index parents" p.p_fp;
                  d_items = req "failure-index items" p.p_fi;
                };
              crash_index =
                {
                  Index.d_entries = List.rev p.p_ce_rev;
                  d_parent = req "crash-index parents" p.p_cp;
                  d_items = req "crash-index items" p.p_ci;
                };
              rarity = p.p_rarity;
              rare_blocks = Option.value p.p_rareb ~default:[];
              mutator = req "mutator line" p.p_mut;
            };
        }
    | first :: _ -> bad "bad header %S (expected %S)" first header
    | [] -> bad "empty snapshot"

  let decode contents =
    let err m = Error ("checkpoint snapshot: " ^ m) in
    let len = String.length contents in
    if len = 0 then err "empty file"
    else if contents.[len - 1] <> '\n' then err "truncated (no final newline)"
    else
      match String.rindex_from_opt contents (len - 2) '\n' with
      | None -> err "missing checksum trailer"
      | Some p -> (
          let trailer = String.sub contents (p + 1) (len - p - 2) in
          let body = String.sub contents 0 (p + 1) in
          match String.split_on_char ' ' trailer with
          | [ "k"; hex ] -> (
              match int_of_string_opt ("0x" ^ hex) with
              | Some crc when crc = Transport.checksum body -> (
                  try Ok (parse_body body) with
                  | Bad m -> err m
                  | Invalid_argument m -> err m)
              | Some _ -> err "checksum mismatch — the snapshot is corrupt"
              | None -> err "malformed checksum trailer")
          | _ -> err "missing checksum trailer")
end

(* {2 Checksummed lines}

   The journal and the record log share one line format,
   [%08x payload\n]: the checksum of the payload, a space, the payload. *)

let checked_line payload =
  Printf.sprintf "%08x %s\n" (Transport.checksum payload) payload

(* The payload of one line (without its newline), or [Bad]. *)
let verified_payload what line =
  let crc, payload = split2 line in
  if String.length crc <> 8 then bad "%s line: missing checksum" what;
  match int_of_string_opt ("0x" ^ crc) with
  | Some c when c = Transport.checksum payload -> payload
  | Some _ -> bad "%s line: checksum mismatch" what
  | None -> bad "%s line: malformed checksum" what

(* {2 The write-ahead journal}

   Headerless since checkpoint version 3: one [o <key> <msg>] line per
   released outcome, keyed by the absolute iteration carried inside the
   encoded run report. Outcomes are journaled at reorder-buffer release,
   so a well-formed journal is strictly seq-ascending — no batch framing
   is needed to replay it. *)

let parse_payload payload =
  let tag, rest = split2 payload in
  match tag with
  | "o" -> (
      let pt, msg = split2 rest in
      let key = unescape "journal point" pt in
      match Message.decode_from_manager msg with
      | Ok (Message.Scenario_result r) ->
          if r.Message.seq < 1 then bad "journal outcome: bad sequence number";
          (r.Message.seq, key, r)
      | Ok (Message.Manager_error _) -> bad "journal outcome: manager error"
      | Error m -> bad "journal outcome: %s" m)
  | t -> bad "unknown journal record %S" t

let parse_wal_line line = parse_payload (verified_payload "journal" line)

(* Scan the journal: complete lines parse in order; a torn or corrupt
   FINAL line is the crash signature and is dropped (the truncation point
   is returned), while damage anywhere earlier is refused — the journal
   is append-only, so only its tail can legitimately be half-written. *)
let parse_wal contents =
  let len = String.length contents in
  let rec lines acc start =
    if start >= len then List.rev acc
    else
      match String.index_from_opt contents start '\n' with
      | None -> List.rev acc (* trailing bytes without newline: torn tail *)
      | Some e -> lines ((String.sub contents start (e - start), start) :: acc) (e + 1)
  in
  let all = lines [] 0 in
  let n = List.length all in
  let records = ref [] in
  let valid_end = ref len in
  (try
     List.iteri
       (fun i (line, start) ->
         match parse_wal_line line with
         | r -> records := r :: !records
         | exception Bad m ->
             if i = n - 1 then begin
               Log.warn (fun f -> f "dropping torn journal tail: %s" m);
               valid_end := start;
               raise Exit
             end
             else bad "journal record %d: %s" (i + 1) m)
       all
   with Exit -> ());
  (match all with
  | [] -> valid_end := 0
  | _ when !valid_end = len ->
      (* complete lines all parsed; drop any trailing half-line *)
      let _, last_start = List.nth all (n - 1) in
      let last_end = String.index_from contents last_start '\n' + 1 in
      valid_end := last_end
  | _ -> ());
  (List.rev !records, !valid_end)

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

   [records.log] holds records 1..n in birth order, one checksummed
   [r ...] line each (the snapshot's record codec). A record is logged
   once it is older than every queued test: only aging changes a record
   (its fitness), only queued records age, and no record re-enters the
   queue, so a logged record is final. *)

(* The highest birth whose record is final: the oldest queued birth
   minus one, or every record when nothing is queued (the random and
   exhaustive strategies never queue). *)
let frontier (x : Explorer.Snapshot.t) =
  match x.Explorer.Snapshot.queue with
  | [] -> x.Explorer.Snapshot.iterations
  | q -> List.fold_left min max_int q - 1

let record_of_log_line line =
  match String.split_on_char ' ' (verified_payload "record log" line) with
  | "r" :: rest -> Snapshot.record_of_tokens rest
  | _ -> bad "record log line: not a record"

(* The records a mark vouches for, newest first: exactly [logged] whole
   lines in the first [log_bytes] bytes, births 1..logged. Bytes past
   the mark are not read — they are a crash's half-finished append. *)
let parse_log contents (m : Snapshot.mark) =
  if String.length contents < m.Snapshot.log_bytes then
    bad "records.log holds %d bytes, short of the %d its mark vouches for"
      (String.length contents) m.Snapshot.log_bytes;
  let rec lines acc n start =
    if start = m.Snapshot.log_bytes then begin
      if n <> m.Snapshot.logged then
        bad "records.log holds %d records where the mark vouches for %d" n
          m.Snapshot.logged;
      acc
    end
    else
      match String.index_from_opt contents start '\n' with
      | Some e when e < m.Snapshot.log_bytes ->
          let c =
            try record_of_log_line (String.sub contents start (e - start))
            with Bad msg -> bad "records.log record %d: %s" (n + 1) msg
          in
          if c.Test_case.birth <> n + 1 then
            bad "records.log record %d carries birth %d" (n + 1)
              c.Test_case.birth;
          lines (c :: acc) (n + 1) (e + 1)
      | Some _ | None -> bad "records.log: the mark ends inside a line"
  in
  lines [] 0 0

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
  mutable mark : Snapshot.mark;  (** what [records.log] holds *)
  mutable appends : int;
  mutable snapshots : int;
  mutable last_snapshot_iterations : int;
  mutable replay : (int * string * Message.run_report) list;
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
            mark = { Snapshot.logged = 0; log_bytes = 0 }; appends = 0;
            snapshots = 0; last_snapshot_iterations = 0; replay = [];
            was_resumed = false; n_replayed_records = 0; loaded = None;
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
    | None ->
        let k, v =
          List.find (fun (k, v) -> List.assoc_opt k current <> Some v) stored
        in
        Error
          (Printf.sprintf
             "checkpoint was taken with %s=%s, which this invocation does not \
              set — flags that shape the search must match to resume"
             k v)
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
          mark = snap.Snapshot.mark; appends = 0; snapshots = 0;
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

let write_all what fd s =
  let n = String.length s in
  if Unix.write_substring fd s 0 n <> n then
    failwith ("checkpoint: short " ^ what ^ " write")

let append_outcome t ~point_key ~seq outcome =
  let msg =
    Message.encode_from_manager
      (Message.Scenario_result (Message.report_of_outcome ~seq outcome))
  in
  write_all "journal" t.wal_fd
    (checked_line (String.concat " " [ "o"; Message.escape point_key; msg ]));
  t.appends <- t.appends + 1;
  t.hooks.on_append t.appends

(* Append the records that became final since the last snapshot, in
   one write; the rest of the capture stays in the snapshot. *)
let freeze t (x : Explorer.Snapshot.t) =
  let f = frontier x in
  let buf = Buffer.create 4096 in
  let rec go n = function
    | (c : Test_case.t) :: rest when c.Test_case.birth <= f ->
        Buffer.add_string buf (checked_line (Snapshot.record_to_line c));
        go (n + 1) rest
    | live -> (n, live)
  in
  let n, live = go 0 x.Explorer.Snapshot.records in
  if n > 0 then begin
    write_all "record log" t.log_fd (Buffer.contents buf);
    t.mark <-
      {
        Snapshot.logged = t.mark.Snapshot.logged + n;
        log_bytes = t.mark.Snapshot.log_bytes + Buffer.length buf;
      }
  end;
  live

let write_snapshot t ~master_state explorer =
  let x = Explorer.capture ~since:t.mark.Snapshot.logged explorer in
  let live = freeze t x in
  t.hooks.before_rename ();
  let text =
    Snapshot.encode
      {
        Snapshot.meta = t.cp_meta;
        master_state;
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
  replayed_records : int;
}

let stats (t : t) =
  {
    was_resumed = t.was_resumed;
    snapshots_written = t.snapshots;
    wal_appends = t.appends;
    replayed_records = t.n_replayed_records;
  }

let close t =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.wal_fd; t.log_fd ]
