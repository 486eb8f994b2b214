module Scenario = Afex_faultspace.Scenario
module Value = Afex_faultspace.Value
module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome
module Bitset = Afex_stats.Bitset

let protocol_version = 3
(* The largest string field a decoder accepts, and the bound on a
   decoded block index. *)
let max_line = 1 lsl 20
let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Field codecs: the wire's, and the checkpoint files'                 *)
(* ------------------------------------------------------------------ *)

(* Scalars are LEB128 varints (zigzag for signed), strings are
   length-prefixed raw bytes with no escaping, and 64-bit words are
   big-endian. Readers advance a cursor and return [Error] on
   truncation, overflow or an unknown code; they never raise. The
   varint loops are top-level functions, so a call allocates no
   closure. *)

(* LEB128 of the raw 63-bit pattern, with logical shifts: the zigzag of
   an extreme int ([min_int], [max_int]) occupies all 63 bits and is
   negative as an OCaml int. *)
let rec add_bits b n =
  if n >= 0 && n < 0x80 then Buffer.add_char b (Char.chr n)
  else begin
    Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
    add_bits b (n lsr 7)
  end

let add_uv b n =
  if n < 0 then invalid_arg "Message: negative varint";
  add_bits b n

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag n = (n lsr 1) lxor (- (n land 1))
let add_sv b n = add_bits b (zigzag n)

let add_str b s =
  add_uv b (String.length s);
  Buffer.add_string b s

let add_i64 = Buffer.add_int64_be
let add_f64 b f = add_i64 b (Int64.bits_of_float f)

type cursor = { data : string; mutable pos : int }

let remaining c = String.length c.data - c.pos

let read_byte c =
  if c.pos >= String.length c.data then Error "truncated record"
  else begin
    let v = Char.code c.data.[c.pos] in
    c.pos <- c.pos + 1;
    Ok v
  end

(* An unsigned varint, or a negative code on failure: the coverage
   loops read two per run and stay clear of [result] boxes. *)
let truncated_uv = -1
let overflowed_uv = -2

let rec uv_from c acc shift =
  if shift > Sys.int_size - 1 then overflowed_uv
  else if c.pos >= String.length c.data then truncated_uv
  else begin
    let byte = Char.code (String.unsafe_get c.data c.pos) in
    c.pos <- c.pos + 1;
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 <> 0 then uv_from c acc (shift + 7)
    else if acc < 0 then overflowed_uv
    else acc
  end

let uv_error code =
  if code = truncated_uv then "truncated varint" else "varint overflow"

let read_uv c =
  let n = uv_from c 0 0 in
  if n >= 0 then Ok n else Error (uv_error n)

(* [read_uv]'s mirror for the full 63-bit pattern: the accumulator may
   legitimately go negative on the 9th byte (bit 62 is the sign bit). *)
let rec bits_from c acc shift =
  if shift >= Sys.int_size then Error "varint overflow"
  else if c.pos >= String.length c.data then Error "truncated varint"
  else begin
    let byte = Char.code (String.unsafe_get c.data c.pos) in
    c.pos <- c.pos + 1;
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then Ok acc else bits_from c acc (shift + 7)
  end

let read_bits c = bits_from c 0 0

let read_sv c = Result.map unzigzag (read_bits c)

let read_str c =
  let* n = read_uv c in
  if n > max_line then Error "oversized string"
  else if n > remaining c then Error "truncated string"
  else begin
    let s = String.sub c.data c.pos n in
    c.pos <- c.pos + n;
    Ok s
  end

let read_i64 c =
  if remaining c < 8 then Error "truncated 64-bit word"
  else begin
    let v = String.get_int64_be c.data c.pos in
    c.pos <- c.pos + 8;
    Ok v
  end

let read_f64 c = Result.map Int64.float_of_bits (read_i64 c)

(* Coverage as run-length varints — run count, then per run the gap
   from the previous run's end (the first run ships its absolute
   start) and the run length minus one. Coverage is overwhelmingly
   contiguous stretches of block indices, so a run costs ~2 bytes
   regardless of its length, where per-block gap encoding pays for
   every block. Both directions go straight between the bitset and the
   varints: [Bitset.fold_runs] finds the runs a word at a time and
   [Bitset.set_run] fills them a byte at a time. *)
let add_run b prev_end first last =
  add_uv b (first - prev_end - 1);
  add_uv b (last - first);
  last

let add_coverage b cov =
  add_uv b (Bitset.runs cov);
  ignore (Bitset.fold_runs add_run b (-1) cov : int)

(* Validate [k] runs and return where the last one ends. A few bytes
   must not conjure a giant bitset, so every block index stays below
   [max_line]; the comparisons are arranged so no sum can wrap. *)
let rec coverage_end c prev_end k =
  if k = 0 then Ok prev_end
  else
    let gap = uv_from c 0 0 in
    if gap < 0 then Error (uv_error gap)
    else
      let len1 = uv_from c 0 0 in
      if len1 < 0 then Error (uv_error len1)
      else if
        gap >= max_line - prev_end - 1
        || len1 >= max_line - prev_end - 1 - gap
      then Error "oversized coverage"
      else coverage_end c (prev_end + 1 + gap + len1) (k - 1)

(* The second pass, over runs [coverage_end] accepted. *)
let rec set_runs c bits prev_end k =
  if k > 0 then begin
    let start = prev_end + 1 + uv_from c 0 0 in
    let last = start + uv_from c 0 0 in
    Bitset.set_run bits start last;
    set_runs c bits last (k - 1)
  end

let read_coverage ?(capacity = 0) c =
  let nruns = uv_from c 0 0 in
  if nruns < 0 then Error (uv_error nruns)
  else if nruns > remaining c then Error "truncated coverage"
  else
    let runs = c.pos in
    match coverage_end c (-1) nruns with
    | Error m -> Error m
    | Ok last ->
        let bits = Bitset.create (max capacity (last + 1)) in
        c.pos <- runs;
        set_runs c bits (-1) nruns;
        Ok bits

(* One byte: the status code in the low two bits, the triggered flag
   in the third. *)
let add_status b status ~triggered =
  let code =
    match status with
    | Outcome.Passed -> 0
    | Outcome.Test_failed -> 1
    | Outcome.Crashed -> 2
    | Outcome.Hung -> 3
  in
  Buffer.add_char b (Char.chr (code lor if triggered then 4 else 0))

let read_status c =
  let* flags = read_byte c in
  if flags land lnot 7 <> 0 then
    Error (Printf.sprintf "unknown status flags %#x" flags)
  else
    let status =
      match flags land 3 with
      | 0 -> Outcome.Passed
      | 1 -> Outcome.Test_failed
      | 2 -> Outcome.Crashed
      | _ -> Outcome.Hung
    in
    Ok (status, flags land 4 <> 0)

(* A fault as its five fields (Fig. 5): the test id, call number and
   return value as zigzag varints, the function and errno as
   length-prefixed strings, so any name crosses exactly. *)
let add_fault b (f : Fault.t) =
  add_sv b f.test_id;
  add_str b f.func;
  add_sv b f.call_number;
  add_str b f.errno;
  add_sv b f.retval

let read_fault c =
  let* test_id = read_sv c in
  let* func = read_str c in
  let* call_number = read_sv c in
  let* errno = read_str c in
  let* retval = read_sv c in
  Ok { Fault.test_id; func; call_number; errno; retval }

(* ------------------------------------------------------------------ *)
(* Handshake                                                           *)
(* ------------------------------------------------------------------ *)

type greeting = Welcome of int | Reject of string

let encode_hello ~version = Printf.sprintf "HELLO afex %d" version

let decode_hello line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "HELLO"; "afex"; v ] -> (
      match int_of_string_opt v with
      | Some v when v >= 0 -> Ok v
      | Some _ | None -> Error (Printf.sprintf "malformed hello version %S" v))
  | _ -> Error (Printf.sprintf "malformed hello %S" line)

let encode_welcome ~version = Printf.sprintf "WELCOME afex %d" version

(* The handshake line is one frame, so the reason needs no escaping. *)
let encode_reject ~reason = "REJECT " ^ reason

let decode_greeting line =
  if String.starts_with ~prefix:"REJECT " line then
    Ok (Reject (String.sub line 7 (String.length line - 7)))
  else
    match String.split_on_char ' ' (String.trim line) with
    | [ "WELCOME"; "afex"; v ] -> (
        match int_of_string_opt v with
        | Some v when v >= 0 -> Ok (Welcome v)
        | Some _ | None ->
            Error (Printf.sprintf "malformed welcome version %S" v))
    | [ "REJECT" ] -> Ok (Reject "")
    | _ -> Error (Printf.sprintf "malformed greeting %S" line)

(* ------------------------------------------------------------------ *)
(* Explorer -> manager                                                 *)
(* ------------------------------------------------------------------ *)

type to_manager =
  | Run_scenario of { seq : int; scenario : Scenario.t }
  | Shutdown

(* ------------------------------------------------------------------ *)
(* Manager -> explorer                                                 *)
(* ------------------------------------------------------------------ *)

type run_report = {
  seq : int;
  status : Outcome.status;
  triggered : bool;
  fault : Fault.t;
  coverage : Bitset.t;
  injection_stack : string list option;
  crash_stack : string list option;
  duration_ms : float;
}

type from_manager =
  | Scenario_result of run_report
  | Manager_error of { seq : int; message : string }

let report_of_outcome ~seq (o : Outcome.t) =
  {
    seq;
    status = o.Outcome.status;
    triggered = o.Outcome.triggered;
    fault = o.Outcome.fault;
    coverage = o.Outcome.coverage;
    injection_stack = o.Outcome.injection_stack;
    crash_stack = o.Outcome.crash_stack;
    duration_ms = o.Outcome.duration_ms;
  }

(* A decoded bitset ends at its highest block, so a capacity beyond
   [total_blocks] names a block outside the target. *)
let outcome_of_report ~total_blocks r =
  let capacity = Bitset.capacity r.coverage in
  if capacity > total_blocks then
    Error
      (Printf.sprintf "block index %d outside [0,%d)" (capacity - 1)
         total_blocks)
  else
    Ok
      {
        Outcome.fault = r.fault;
        status = r.status;
        triggered = r.triggered;
        coverage =
          (if capacity = total_blocks then r.coverage
           else Bitset.extend r.coverage total_blocks);
        injection_stack = r.injection_stack;
        crash_stack = r.crash_stack;
        duration_ms = r.duration_ms;
      }

(* ------------------------------------------------------------------ *)
(* The wire protocol (version 3): binary records, several to a frame  *)
(* ------------------------------------------------------------------ *)

(* A frame payload is a concatenation of tagged binary records built
   from the field codecs above. Two pieces of per-connection state make
   steady-state records small: the server interns stack frames into a dictionary it
   grows with incremental DICT records (reports then carry int ids),
   and the client delta-encodes each scenario against the previous one
   it sent on that connection (mutations touch few axes). Both sides
   reset this state on reconnect.

   The frame checksum already catches corruption; the remaining threat
   is a *valid* frame applied to desynchronized state (a dropped or
   duplicated frame under chaos). Three guards turn that into a typed
   decode error instead of a silently wrong report: requests carry a
   per-connection generation counter (a gap means a lost frame, a
   stale one is an idempotent duplicate to skip), every request carries
   an FNV-1a checksum of the full reconstructed scenario, and DICT
   records carry their explicit base id (a gap or conflicting re-definition
   is desync). *)

module V2 = struct
  let tag_request = 0x01
  let tag_shutdown = 0x02
  let tag_dict = 0x03
  let tag_result = 0x04
  let tag_error = 0x05

  (* -- values and scenarios --------------------------------------- *)

  let add_value b = function
    | Value.Sym s ->
        Buffer.add_char b '\x00';
        add_str b s
    | Value.Int n ->
        Buffer.add_char b '\x01';
        add_sv b n
    | Value.Pair (lo, hi) ->
        Buffer.add_char b '\x02';
        add_sv b lo;
        add_sv b hi

  let read_value c =
    let* tag = read_byte c in
    match tag with
    | 0 ->
        let* s = read_str c in
        Ok (Value.Sym s)
    | 1 ->
        let* n = read_sv c in
        Ok (Value.Int n)
    | 2 ->
        let* lo = read_sv c in
        let* hi = read_sv c in
        Ok (Value.Pair (lo, hi))
    | t -> Error (Printf.sprintf "unknown value tag %d" t)

  let scenario_checksum s = Transport.checksum (Scenario.to_string s)

  (* -- client -> server ------------------------------------------- *)

  type client_enc = {
    mutable last_sent : Scenario.t option;
    mutable out_gen : int;
  }

  let client_enc () = { last_sent = None; out_gen = 0 }

  (* Delta-encode against the previous scenario sent on this connection
     when the axes line up (same names, same order) and strictly fewer
     bindings changed than the scenario has; otherwise send it full. *)
  let encode_request enc b ~seq scenario =
    if seq < 0 then invalid_arg "Message.V2.encode_request: negative seq";
    enc.out_gen <- enc.out_gen + 1;
    Buffer.add_char b (Char.chr tag_request);
    add_uv b seq;
    add_uv b enc.out_gen;
    let changes =
      match enc.last_sent with
      | Some prev
        when List.length prev = List.length scenario
             && List.for_all2
                  (fun (n, _) (n', _) -> String.equal n n')
                  prev scenario ->
          let rec diff i acc prev scen =
            match (prev, scen) with
            | [], [] -> Some (List.rev acc)
            | (_, pv) :: prest, (_, sv) :: srest ->
                let acc = if Value.equal pv sv then acc else (i, sv) :: acc in
                diff (i + 1) acc prest srest
            | _ -> None
          in
          diff 0 [] prev scenario
      | _ -> None
    in
    (match changes with
    | Some changed when List.length changed < List.length scenario ->
        Buffer.add_char b '\x01';
        add_uv b (List.length changed);
        List.iter
          (fun (i, v) ->
            add_uv b i;
            add_value b v)
          changed
    | Some _ | None ->
        Buffer.add_char b '\x00';
        add_uv b (List.length scenario);
        List.iter
          (fun (n, v) ->
            add_str b n;
            add_value b v)
          scenario);
    add_uv b (scenario_checksum scenario);
    enc.last_sent <- Some scenario

  let encode_shutdown b = Buffer.add_char b (Char.chr tag_shutdown)

  type server_dec = {
    mutable last_seen : Scenario.t option;
    mutable in_gen : int;
  }

  let server_dec () = { last_seen = None; in_gen = 0 }

  let decode_requests dec payload =
    let c = { data = payload; pos = 0 } in
    let rec loop acc =
      if remaining c = 0 then Ok (List.rev acc)
      else
        let* tag = read_byte c in
        if tag = tag_shutdown then loop (Shutdown :: acc)
        else if tag = tag_request then begin
          let* seq = read_uv c in
          let* gen = read_uv c in
          let* mode = read_byte c in
          let* body =
            if mode = 0 then begin
              let* n = read_uv c in
              if n > remaining c then Error "truncated scenario"
              else begin
                let rec bindings acc k =
                  if k = 0 then Ok (List.rev acc)
                  else
                    let* name = read_str c in
                    let* v = read_value c in
                    bindings ((name, v) :: acc) (k - 1)
                in
                Result.map (fun s -> `Full s) (bindings [] n)
              end
            end
            else if mode = 1 then begin
              let* n = read_uv c in
              if n > remaining c then Error "truncated scenario delta"
              else begin
                let rec changes acc k =
                  if k = 0 then Ok (List.rev acc)
                  else
                    let* i = read_uv c in
                    let* v = read_value c in
                    changes ((i, v) :: acc) (k - 1)
                in
                Result.map (fun cs -> `Delta cs) (changes [] n)
              end
            end
            else Error (Printf.sprintf "unknown scenario mode %d" mode)
          in
          let* sum = read_uv c in
          if gen <= dec.in_gen then
            (* A duplicated frame (chaos): these requests were already
               reconstructed, executed and answered — skip, don't touch
               the delta base. *)
            loop acc
          else if gen > dec.in_gen + 1 then
            Error
              (Printf.sprintf
                 "request generation gap (%d after %d): a frame went missing"
                 gen dec.in_gen)
          else
            let* scenario =
              match body with
              | `Full s -> Ok s
              | `Delta changed -> (
                  match dec.last_seen with
                  | None -> Error "delta request without a base scenario"
                  | Some prev ->
                      let arr = Array.of_list prev in
                      let rec apply = function
                        | [] -> Ok (Array.to_list arr)
                        | (i, v) :: rest ->
                            if i < 0 || i >= Array.length arr then
                              Error
                                (Printf.sprintf
                                   "delta index %d outside the base scenario" i)
                            else begin
                              arr.(i) <- (fst arr.(i), v);
                              apply rest
                            end
                      in
                      apply changed)
            in
            if scenario_checksum scenario <> sum then
              Error "scenario checksum mismatch: connection state desynchronized"
            else begin
              dec.last_seen <- Some scenario;
              dec.in_gen <- gen;
              loop (Run_scenario { seq; scenario } :: acc)
            end
        end
        else Error (Printf.sprintf "unknown request record tag %d" tag)
    in
    loop []

  (* -- server -> client ------------------------------------------- *)

  (* The frames a dictionary has announced, by id: ids go in first-use
     order. *)
  type frames = { mutable names : string array; mutable count : int }

  let frames () = { names = Array.make 16 ""; count = 0 }

  let push_frame d frame =
    if d.count = Array.length d.names then begin
      let grown = Array.make (2 * d.count) "" in
      Array.blit d.names 0 grown 0 d.count;
      d.names <- grown
    end;
    d.names.(d.count) <- frame;
    d.count <- d.count + 1

  type server_enc = { interned : (string, int) Hashtbl.t; dict : frames }

  let server_enc () = { interned = Hashtbl.create 64; dict = frames () }
  let server_dict_size enc = enc.dict.count

  let intern enc frame =
    match Hashtbl.find enc.interned frame with
    | _ -> ()
    | exception Not_found ->
        Hashtbl.add enc.interned frame enc.dict.count;
        push_frame enc.dict frame

  (* [f d frame] on each frame of a stack, in order. *)
  let rec each_frame f d = function
    | [] -> ()
    | frame :: rest ->
        f d frame;
        each_frame f d rest

  let each_stack_frame f d = function
    | None -> ()
    | Some frames -> each_frame f d frames

  let interned_id enc frame = Hashtbl.find enc.interned frame

  (* A DICT record announcing the frames of [d] from id [base] on, or
     nothing when there are none. *)
  let add_dict b d ~base =
    if d.count > base then begin
      Buffer.add_char b (Char.chr tag_dict);
      add_uv b base;
      add_uv b (d.count - base);
      for id = base to d.count - 1 do
        add_str b d.names.(id)
      done
    end

  let rec add_ids b frame_id dict = function
    | [] -> ()
    | frame :: rest ->
        add_uv b (frame_id dict frame);
        add_ids b frame_id dict rest

  let add_stack_ids b frame_id dict = function
    | None -> Buffer.add_char b '\x00'
    | Some frames ->
        Buffer.add_char b '\x01';
        add_uv b (List.length frames);
        add_ids b frame_id dict frames

  (* The RESULT record, the one layout that wire replies and journal
     records share: its stack frames go out as the ids [frame_id dict]
     gives them, which a DICT record before it has announced. *)
  let add_result b frame_id dict ~seq ~status ~triggered ~duration_ms ~fault
      ~coverage injection_stack crash_stack =
    Buffer.add_char b (Char.chr tag_result);
    add_uv b seq;
    add_status b status ~triggered;
    add_f64 b duration_ms;
    add_fault b fault;
    add_coverage b coverage;
    add_stack_ids b frame_id dict injection_stack;
    add_stack_ids b frame_id dict crash_stack

  (* Interning may discover frames the peer has never seen: those are
     shipped in a DICT record immediately before the report that uses
     them, in the same coalesced frame. The record carries its explicit
     base id so a duplicated frame re-defines entries identically (a
     no-op) and a dropped one leaves a detectable gap. The dictionary
     holds stack frames only, so the target's code bounds it; the fault
     crosses as its fields. *)
  let encode_reply enc b = function
    | Manager_error { seq; message } ->
        Buffer.add_char b (Char.chr tag_error);
        add_sv b seq;
        add_str b message
    | Scenario_result r ->
        let base = enc.dict.count in
        each_stack_frame intern enc r.injection_stack;
        each_stack_frame intern enc r.crash_stack;
        add_dict b enc.dict ~base;
        add_result b interned_id enc ~seq:r.seq ~status:r.status
          ~triggered:r.triggered ~duration_ms:r.duration_ms ~fault:r.fault
          ~coverage:r.coverage r.injection_stack r.crash_stack

  (* A record that decodes alone carries its own dictionary: its
     distinct frames in first-use order, ids from 0, as a fresh
     [server_enc] would intern them. A stack holds a handful of frames,
     so a linear scan of a reused array finds them without hashing. *)
  type record_dict = frames

  let record_dict = frames

  let rec local_find d frame i =
    if i = d.count then -1
    else if String.equal d.names.(i) frame then i
    else local_find d frame (i + 1)

  let local_id d frame = local_find d frame 0

  let local_add d frame = if local_id d frame < 0 then push_frame d frame

  let encode_outcome d b ~seq (o : Outcome.t) =
    d.count <- 0;
    each_stack_frame local_add d o.Outcome.injection_stack;
    each_stack_frame local_add d o.Outcome.crash_stack;
    add_dict b d ~base:0;
    add_result b local_id d ~seq ~status:o.Outcome.status
      ~triggered:o.Outcome.triggered ~duration_ms:o.Outcome.duration_ms
      ~fault:o.Outcome.fault ~coverage:o.Outcome.coverage
      o.Outcome.injection_stack o.Outcome.crash_stack

  type client_dec = {
    mutable frames : string array;
    mutable n_frames : int;
    capacity : int;  (* of decoded coverage bitsets, at least *)
  }

  let client_dec ?(total_blocks = 0) () =
    { frames = Array.make 64 ""; n_frames = 0; capacity = total_blocks }
  let client_dict_size d = d.n_frames

  let dict_append d s =
    if d.n_frames = Array.length d.frames then begin
      let grown = Array.make (2 * Array.length d.frames) "" in
      Array.blit d.frames 0 grown 0 d.n_frames;
      d.frames <- grown
    end;
    d.frames.(d.n_frames) <- s;
    d.n_frames <- d.n_frames + 1

  let read_stack dec c =
    let* present = read_byte c in
    match present with
    | 0 -> Ok None
    | 1 ->
        let* n = read_uv c in
        if n > remaining c + 1 then Error "truncated stack"
        else begin
          let rec go acc k =
            if k = 0 then Ok (Some (List.rev acc))
            else
              let* id = read_uv c in
              if id >= dec.n_frames then
                Error
                  (Printf.sprintf
                     "unknown stack-frame id %d (dictionary has %d): \
                      connection state desynchronized"
                     id dec.n_frames)
              else go (dec.frames.(id) :: acc) (k - 1)
          in
          go [] n
        end
    | t -> Error (Printf.sprintf "unknown stack presence tag %d" t)

  let decode_replies dec payload =
    let c = { data = payload; pos = 0 } in
    let rec loop acc =
      if remaining c = 0 then Ok (List.rev acc)
      else
        let* tag = read_byte c in
        if tag = tag_dict then begin
          let* base = read_uv c in
          let* n = read_uv c in
          if n > remaining c then Error "truncated dictionary record"
          else begin
            let rec entries k =
              if k = n then Ok ()
              else
                let* s = read_str c in
                let id = base + k in
                if id < dec.n_frames then
                  if String.equal dec.frames.(id) s then entries (k + 1)
                  else
                    Error
                      (Printf.sprintf
                         "dictionary entry %d redefined: connection state \
                          desynchronized"
                         id)
                else if id = dec.n_frames then begin
                  dict_append dec s;
                  entries (k + 1)
                end
                else
                  Error
                    (Printf.sprintf
                       "dictionary gap (entry %d after %d): a frame went \
                        missing"
                       id dec.n_frames)
            in
            let* () = entries 0 in
            loop acc
          end
        end
        else if tag = tag_result then begin
          let* seq = read_uv c in
          let* status, triggered = read_status c in
          let* duration_ms = read_f64 c in
          let* fault = read_fault c in
          let* coverage = read_coverage ~capacity:dec.capacity c in
          let* injection_stack = read_stack dec c in
          let* crash_stack = read_stack dec c in
          loop
            (Scenario_result
               {
                 seq;
                 status;
                 triggered;
                 fault;
                 coverage;
                 injection_stack;
                 crash_stack;
                 duration_ms;
               }
            :: acc)
        end
        else if tag = tag_error then begin
          let* seq = read_sv c in
          let* message = read_str c in
          loop (Manager_error { seq; message } :: acc)
        end
        else Error (Printf.sprintf "unknown reply record tag %d" tag)
    in
    loop []
end
