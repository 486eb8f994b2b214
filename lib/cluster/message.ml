module Scenario = Afex_faultspace.Scenario
module Value = Afex_faultspace.Value
module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome
module Bitset = Afex_stats.Bitset

let protocol_version = 2
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
   every block. Both directions go straight between the bitset's bytes
   and the varints. *)
let add_coverage b cov =
  add_uv b (Bitset.fold_runs (fun n _ _ -> n + 1) 0 cov);
  ignore
    (Bitset.fold_runs
       (fun prev_end first last ->
         add_uv b (first - prev_end - 1);
         add_uv b (last - first);
         last)
       (-1) cov)

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

let read_coverage c =
  let nruns = uv_from c 0 0 in
  if nruns < 0 then Error (uv_error nruns)
  else if nruns > remaining c then Error "truncated coverage"
  else
    let runs = c.pos in
    match coverage_end c (-1) nruns with
    | Error m -> Error m
    | Ok last ->
        let bits = Bitset.create (last + 1) in
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

let fault_to_string f = Scenario.to_string (Fault.to_scenario f)

let fault_of_string s =
  match Scenario.of_string s with
  | Error e -> Error e
  | Ok scenario -> Fault.of_scenario scenario

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
  new_blocks : int;
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
    new_blocks = 0 (* the explorer recomputes against its own coverage *);
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
        coverage = Bitset.extend r.coverage total_blocks;
        injection_stack = r.injection_stack;
        crash_stack = r.crash_stack;
        duration_ms = r.duration_ms;
      }

(* ------------------------------------------------------------------ *)
(* Wire protocol v2: binary records, coalesced several to a frame      *)
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

  type server_enc = {
    interned : (string, int) Hashtbl.t;
    mutable next_id : int;
  }

  let server_enc () = { interned = Hashtbl.create 64; next_id = 0 }
  let server_dict_size enc = enc.next_id

  let intern enc pending frame =
    match Hashtbl.find_opt enc.interned frame with
    | Some id -> id
    | None ->
        let id = enc.next_id in
        Hashtbl.add enc.interned frame id;
        enc.next_id <- id + 1;
        pending := frame :: !pending;
        id

  let add_stack_ids b = function
    | None -> Buffer.add_char b '\x00'
    | Some ids ->
        Buffer.add_char b '\x01';
        add_uv b (List.length ids);
        List.iter (add_uv b) ids

  (* Interning may discover strings the peer has never seen: those are
     shipped in a DICT record immediately before the report that uses
     them, in the same coalesced frame. The record carries its explicit
     base id so a duplicated frame re-defines entries identically (a
     no-op) and a dropped one leaves a detectable gap. The dictionary
     holds stack frames and fault descriptors alike. Stack frames
     repeat, so steady-state reports ship their ids; faults mostly do
     not (every fault of an 8,000-test mysql campaign is distinct), so
     a fault's text usually crosses in its own report's DICT record and
     the dictionary grows by about one entry per test. *)
  let encode_reply enc b = function
    | Manager_error { seq; message } ->
        Buffer.add_char b (Char.chr tag_error);
        add_sv b seq;
        add_str b message
    | Scenario_result r ->
        let pending = ref [] in
        let base = enc.next_id in
        let fault_id = intern enc pending (fault_to_string r.fault) in
        let ids = Option.map (List.map (intern enc pending)) in
        let istack = ids r.injection_stack in
        let cstack = ids r.crash_stack in
        let news = List.rev !pending in
        if news <> [] then begin
          Buffer.add_char b (Char.chr tag_dict);
          add_uv b base;
          add_uv b (List.length news);
          List.iter (add_str b) news
        end;
        Buffer.add_char b (Char.chr tag_result);
        add_uv b r.seq;
        add_status b r.status ~triggered:r.triggered;
        add_uv b r.new_blocks;
        add_f64 b r.duration_ms;
        add_uv b fault_id;
        add_coverage b r.coverage;
        add_stack_ids b istack;
        add_stack_ids b cstack

  type client_dec = {
    mutable frames : string array;
    mutable n_frames : int;
  }

  let client_dec () = { frames = Array.make 64 ""; n_frames = 0 }
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
          let* new_blocks = read_uv c in
            let* duration_ms = read_f64 c in
            let* fault_id = read_uv c in
            let* fault_s =
              if fault_id >= dec.n_frames then
                Error
                  (Printf.sprintf
                     "unknown fault id %d (dictionary has %d): connection \
                      state desynchronized"
                     fault_id dec.n_frames)
              else Ok dec.frames.(fault_id)
            in
            let* fault = fault_of_string fault_s in
            let* coverage = read_coverage c in
            let* injection_stack = read_stack dec c in
            let* crash_stack = read_stack dec c in
            loop
              (Scenario_result
                 {
                   seq;
                   status;
                   triggered;
                   new_blocks;
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
