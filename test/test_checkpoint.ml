(* Crash-safe checkpoint/resume: codec round-trips on random explorer
   states, corruption rejection (truncation, bit flips, torn journal
   tails, damaged record logs), deterministic crash-point sweeps — the
   in-process copy of what the CI kill -9 harness proves on the real
   binary — and the gate that keeps a snapshot's cost at the tests run
   since the last one. *)

module Checkpoint = Afex_cluster.Checkpoint
module Message = Afex_cluster.Message
module Pool = Afex_cluster.Pool
module Config = Afex.Config
module Explorer = Afex.Explorer
module Export = Afex_report.Export
module Rng = Afex_stats.Rng
module Apache = Afex_simtarget.Apache
module Mysql = Afex_simtarget.Mysql
module Bitset = Afex_stats.Bitset

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0
let executor () = Afex.Executor.of_target (Apache.target ())
let space () = Apache.space ()

let temp_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "afex_ck_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* The framed records of a journal or record log, whole: each is a
   12-byte header that starts with the payload length, then the
   payload. *)
let framed_records s =
  let rec go acc pos =
    if pos >= String.length s then List.rev acc
    else
      let n = Int32.to_int (String.get_int32_be s pos) land 0xFFFF_FFFF in
      let next = min (String.length s) (pos + 12 + n) in
      go (String.sub s pos (next - pos) :: acc) next
  in
  go [] 0

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x04));
  Bytes.to_string b

(* Deliberately awkward metadata: spaces, tabs, newlines, [%] and
   backslashes must survive the round trip. *)
let meta =
  [
    ("format", "1");
    ("target", "apache");
    ("seed", "7");
    ("no te", "sp ace\tand\npercent % and \\ backslash");
  ]

(* ---- snapshot codec properties --------------------------------------- *)

(* A random mid-campaign explorer: random strategy, seed, feedback flag
   and progress point, captured at a batch boundary (nothing pending)
   above a random record-log mark. *)
let arb_snapshot =
  Prop.make
    ~show:(fun (s : Checkpoint.Snapshot.t) ->
      Printf.sprintf "<snapshot: %d iterations, %d logged>"
        s.Checkpoint.Snapshot.explorer.Explorer.Snapshot.iterations
        s.Checkpoint.Snapshot.mark.Checkpoint.Snapshot.logged)
    (fun rng ->
      let seed = Rng.int rng 10_000 in
      let steps = Rng.int rng 61 in
      let config =
        match Rng.int rng 3 with
        | 0 -> Config.fitness_guided ~seed ()
        | 1 -> Config.random_search ~seed ()
        | _ -> Config.exhaustive ~seed ()
      in
      let config = { config with Config.feedback = Rng.bernoulli rng 0.5 } in
      let ex = Explorer.create config (space ()) (executor ()) in
      for _ = 1 to steps do
        match Explorer.next ex with
        | Some p -> ignore (Explorer.execute ex p)
        | None -> ()
      done;
      let logged = Rng.int rng (Explorer.iterations ex + 1) in
      {
        Checkpoint.Snapshot.meta;
        master_state = Rng.state (Rng.create (Rng.int rng 10_000));
        mark =
          { Checkpoint.Snapshot.logged; log_bytes = Rng.int rng 1_000_000 };
        explorer = Explorer.capture ~since:logged ex;
      })

let test_codec_roundtrip () =
  Prop.check ~count:25 "snapshot encode/decode/encode is bit-identical"
    arb_snapshot (fun snap ->
      let bytes = Checkpoint.Snapshot.encode snap in
      match Checkpoint.Snapshot.decode bytes with
      | Error _ -> false
      | Ok snap' -> String.equal (Checkpoint.Snapshot.encode snap') bytes)

(* One representative encoded snapshot for the corruption sweeps. *)
let sample_bytes =
  lazy
    (let rng = Rng.create 42 in
     Checkpoint.Snapshot.encode (arb_snapshot.Prop.gen rng))

let test_truncation_rejected () =
  let bytes = Lazy.force sample_bytes in
  Prop.check ~count:80 "truncated snapshot is a clean Error"
    (Prop.int_range 0 (String.length bytes - 1))
    (fun cut ->
      match Checkpoint.Snapshot.decode (String.sub bytes 0 cut) with
      | Error _ -> true
      | Ok _ -> false)

let test_bitflip_rejected () =
  let bytes = Lazy.force sample_bytes in
  Prop.check ~count:80 "bit-flipped snapshot is a clean Error"
    (Prop.int_range 0 ((String.length bytes * 8) - 1))
    (fun bit ->
      let b = Bytes.of_string bytes in
      let i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
      match Checkpoint.Snapshot.decode (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> false)

(* ---- explorer-level capture/restore ---------------------------------- *)

let history (r : Afex.Session.result) =
  List.map
    (fun (c : Afex.Test_case.t) ->
      ( Afex_faultspace.Point.key c.Afex.Test_case.point,
        Afex_injector.Outcome.status_to_string c.Afex.Test_case.status,
        c.Afex.Test_case.fitness ))
    r.Afex.Session.executed

(* Capture mid-campaign, restore, continue: the tail must equal the
   uninterrupted run's, for every strategy (exhaustive exercises the
   cursor_consumed path). *)
let test_capture_restore_continues () =
  List.iter
    (fun config ->
      let drive ex n =
        for _ = 1 to n do
          match Explorer.next ex with
          | Some p -> ignore (Explorer.execute ex p)
          | None -> ()
        done
      in
      let full = Explorer.create config (space ()) (executor ()) in
      drive full 90;
      let half = Explorer.create config (space ()) (executor ()) in
      drive half 40;
      let snap = Explorer.capture half in
      match Explorer.restore config (space ()) (executor ()) snap with
      | Error e -> Alcotest.fail e
      | Ok resumed ->
          drive resumed 50;
          let tail ex =
            List.map
              (fun (c : Afex.Test_case.t) ->
                (Afex_faultspace.Point.key c.Afex.Test_case.point, c.Afex.Test_case.status))
              (Explorer.records ex)
          in
          checkb "restored tail = uninterrupted tail" true (tail resumed = tail full))
    [
      Config.fitness_guided ~seed:13 ();
      Config.random_search ~seed:13 ();
      Config.exhaustive ~seed:13 ();
    ]

(* A record point outside the subspace passes the checksum if whoever
   wrote the file computed it; restore must refuse it, since the first
   lookup of its values would raise and History would count a point the
   space does not have. *)
let test_restore_rejects_foreign_points () =
  let config = Config.fitness_guided ~seed:7 () in
  let ex = Explorer.create config (space ()) (executor ()) in
  for _ = 1 to 30 do
    match Explorer.next ex with
    | Some p -> ignore (Explorer.execute ex p)
    | None -> ()
  done;
  let snap = Explorer.capture ex in
  let restores (s : Explorer.Snapshot.t) =
    match Explorer.restore config (space ()) (executor ()) s with
    | Ok _ -> true
    | Error _ -> false
  in
  checkb "the untouched snapshot restores" true (restores snap);
  List.iter
    (fun (what, coords) ->
      let records =
        List.mapi
          (fun i (c : Afex.Test_case.t) ->
            if i = 17 then
              { c with Afex.Test_case.point = Afex_faultspace.Point.of_list coords }
            else c)
          snap.Explorer.Snapshot.records
      in
      let bytes =
        Checkpoint.Snapshot.encode
          {
            Checkpoint.Snapshot.meta;
            master_state = 0L;
            mark = { Checkpoint.Snapshot.logged = 0; log_bytes = 0 };
            explorer = { snap with Explorer.Snapshot.records };
          }
      in
      match Checkpoint.Snapshot.decode bytes with
      | Error e -> Alcotest.failf "%s: checksummed snapshot refused: %s" what e
      | Ok decoded ->
          checkb (what ^ " refused") false
            (restores decoded.Checkpoint.Snapshot.explorer))
    [
      ("an out-of-range index", [ 999; 0; 0 ]);
      ("a missing axis", [ 0; 0 ]);
      ("an extra axis", [ 0; 0; 0; 0 ]);
    ]

(* ---- checkpoint lifecycle -------------------------------------------- *)

let test_start_refuses_existing () =
  with_dir (fun dir ->
      (match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Checkpoint.write_snapshot cp ~master_state:1L
            (Explorer.create (Config.fitness_guided ~seed:1 ()) (space ())
               (executor ()));
          Checkpoint.close cp);
      match Checkpoint.start ~dir meta with
      | Ok _ -> Alcotest.fail "start over an existing snapshot must be refused"
      | Error e -> checkb "mentions --resume" true (contains e "--resume"))

let test_resume_refuses_empty () =
  with_dir (fun dir ->
      match Checkpoint.resume ~dir meta with
      | Ok _ -> Alcotest.fail "resume of an empty directory must be refused"
      | Error _ -> ())

let test_meta_mismatch_rejected () =
  with_dir (fun dir ->
      (match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Checkpoint.write_snapshot cp ~master_state:1L
            (Explorer.create (Config.fitness_guided ~seed:1 ()) (space ())
               (executor ()));
          Checkpoint.close cp);
      match Checkpoint.resume ~dir (("seed", "8") :: List.remove_assoc "seed" meta) with
      | Ok _ -> Alcotest.fail "resume under a different seed must be refused"
      | Error e -> checkb "names the mismatched key" true (contains e "seed"))

(* A version-5 checkpoint as the text-format release wrote it
   ([explore -t apache -n 40 --seed 7 --checkpoint]): the decoder and
   resume must both refuse it by its header. *)
let test_version_5_refused () =
  let golden = Filename.concat "golden" "checkpoint_v5" in
  let expected = "afex-checkpoint 6" in
  (match
     Checkpoint.Snapshot.decode
       (read_file (Filename.concat golden "snapshot.afex"))
   with
  | Ok _ -> Alcotest.fail "a version-5 snapshot must be refused"
  | Error e -> checkb "names the expected header" true (contains e expected));
  with_dir (fun dir ->
      List.iter
        (fun f ->
          write_file (Filename.concat dir f)
            (read_file (Filename.concat golden f)))
        [ "snapshot.afex"; "records.log"; "wal.log" ];
      match Checkpoint.resume ~dir meta with
      | Ok _ -> Alcotest.fail "resume of a version-5 checkpoint must be refused"
      | Error e ->
          checkb "resume names the expected header" true (contains e expected))

(* ---- crash-point sweep over a real pooled campaign ------------------- *)

exception Crash

(* Sync watermarks every 25 releases put cadence snapshots (every 25
   outcomes) inside the campaign. Its first queued tests stay queued
   until the snapshot at 200, so records reach the record log only in
   the last third, and a resume from there has to merge the log back. *)
let session_exports ?checkpoint config =
  let pool = Pool.create ~jobs:1 (Pool.Pure (executor ())) in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let result, _ =
        Pool.session ?checkpoint ~batch_size:8 ~sync_every:25 ~iterations:300
          pool config (space ())
      in
      ( Export.summary_to_json ~target:"apache" result,
        Export.records_to_csv result ))

let crash_at ~dir ~config hooks =
  match Checkpoint.start ~hooks ~every:25 ~dir meta with
  | Error e -> Alcotest.fail e
  | Ok cp ->
      let crashed =
        match session_exports ~checkpoint:cp config with
        | _ -> false
        | exception Crash -> true
      in
      Checkpoint.close cp;
      crashed

let log_size dir =
  let path = Filename.concat dir "records.log" in
  if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0

let resume_to_end ~dir ~config =
  match Checkpoint.resume ~every:25 ~dir meta with
  | Error e -> Alcotest.fail e
  | Ok cp ->
      Fun.protect
        ~finally:(fun () -> Checkpoint.close cp)
        (fun () -> session_exports ~checkpoint:cp config)

let test_kill_point_sweep () =
  let config = Config.fitness_guided ~seed:7 () in
  let base_json, base_csv = session_exports config in
  (* Learn the append count of the uninterrupted campaign, then crash at
     early / mid / late appends; the last two come after records were
     logged. *)
  let total = ref 0 in
  with_dir (fun dir ->
      let hooks = { Checkpoint.no_hooks with Checkpoint.on_append = (fun n -> total := n) } in
      (match Checkpoint.start ~hooks ~every:25 ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          ignore (session_exports ~checkpoint:cp config);
          Checkpoint.close cp));
  let points = [ 1; 5; !total / 2; 3 * !total / 4; !total - 1 ] in
  List.iter
    (fun k ->
      with_dir (fun dir ->
          let hooks =
            {
              Checkpoint.no_hooks with
              Checkpoint.on_append = (fun n -> if n = k then raise Crash);
            }
          in
          checkb (Printf.sprintf "crashed at append %d" k) true
            (crash_at ~dir ~config hooks);
          if k >= 3 * !total / 4 then
            checkb
              (Printf.sprintf "records logged before the crash at append %d" k)
              true
              (log_size dir > 0);
          let json, csv = resume_to_end ~dir ~config in
          checks (Printf.sprintf "JSON identical after crash at append %d" k)
            base_json json;
          checks (Printf.sprintf "CSV identical after crash at append %d" k)
            base_csv csv))
    points

(* Crash in the window between the snapshot rename and the journal
   truncation: the journal then still holds entries the snapshot already
   covers, which resume must discard. *)
let test_crash_between_rename_and_truncate () =
  let config = Config.fitness_guided ~seed:7 () in
  let base_json, base_csv = session_exports config in
  with_dir (fun dir ->
      let snapshots = ref 0 in
      let hooks =
        {
          Checkpoint.no_hooks with
          Checkpoint.after_rename =
            (fun () ->
              incr snapshots;
              if !snapshots = 2 then raise Crash);
        }
      in
      checkb "crashed after rename" true (crash_at ~dir ~config hooks);
      let json, csv = resume_to_end ~dir ~config in
      checks "JSON identical after rename-window crash" base_json json;
      checks "CSV identical after rename-window crash" base_csv csv)

(* Crash after the record-log append and before the snapshot rename:
   the older snapshot then sits next to a log that runs past its mark.
   Resume drops the bytes past the mark and replays the journal, which
   the older snapshot still vouches for. *)
let test_crash_between_log_append_and_rename () =
  let config = Config.fitness_guided ~seed:7 () in
  let base_json, base_csv = session_exports config in
  with_dir (fun dir ->
      let hooks =
        {
          Checkpoint.no_hooks with
          Checkpoint.before_rename =
            (fun () -> if log_size dir > 0 then raise Crash);
        }
      in
      checkb "crashed before rename" true (crash_at ~dir ~config hooks);
      let on_disk =
        match
          Checkpoint.Snapshot.decode
            (read_file (Filename.concat dir "snapshot.afex"))
        with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      checkb "the log runs past the older snapshot's mark" true
        (log_size dir
        > on_disk.Checkpoint.Snapshot.mark.Checkpoint.Snapshot.log_bytes);
      let json, csv = resume_to_end ~dir ~config in
      checks "JSON identical after log-append crash" base_json json;
      checks "CSV identical after log-append crash" base_csv csv;
      match
        Checkpoint.Snapshot.decode
          (read_file (Filename.concat dir "snapshot.afex"))
      with
      | Error e -> Alcotest.fail e
      | Ok final ->
          Alcotest.(check int)
            "the finished log is exactly what the final mark vouches for"
            final.Checkpoint.Snapshot.mark.Checkpoint.Snapshot.log_bytes
            (log_size dir))

(* Crash the resumed run too: recovery must compose. *)
let test_double_crash () =
  let config = Config.fitness_guided ~seed:7 () in
  let base_json, base_csv = session_exports config in
  with_dir (fun dir ->
      checkb "first crash" true
        (crash_at ~dir ~config
           {
             Checkpoint.no_hooks with
             Checkpoint.on_append = (fun n -> if n = 210 then raise Crash);
           });
      let logged = log_size dir in
      checkb "records logged before the first crash" true (logged > 0);
      (match
         Checkpoint.resume ~every:25
           ~hooks:
             {
               Checkpoint.no_hooks with
               Checkpoint.on_append = (fun n -> if n = 30 then raise Crash);
             }
           ~dir meta
       with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          (match session_exports ~checkpoint:cp config with
          | _ -> Alcotest.fail "second crash did not fire"
          | exception Crash -> ());
          Checkpoint.close cp);
      checkb "the resumed run logged more records" true (log_size dir > logged);
      let json, csv = resume_to_end ~dir ~config in
      checks "JSON identical after double crash" base_json json;
      checks "CSV identical after double crash" base_csv csv)

(* ---- journal damage --------------------------------------------------- *)

let test_torn_wal_tail_tolerated () =
  let config = Config.fitness_guided ~seed:7 () in
  let base_json, _ = session_exports config in
  List.iter
    (fun (what, cut) ->
      with_dir (fun dir ->
          checkb "crashed" true
            (crash_at ~dir ~config
               {
                 Checkpoint.no_hooks with
                 Checkpoint.on_append = (fun n -> if n = 40 then raise Crash);
               });
          (* Tear the final journal record, as a crash mid-write would. *)
          let wal = Filename.concat dir "wal.log" in
          let bytes = read_file wal in
          write_file wal (String.sub bytes 0 (cut bytes));
          let json, _ = resume_to_end ~dir ~config in
          checks (what ^ ": torn tail re-executed, export identical") base_json
            json))
    [
      ("cut inside the last payload", fun b -> String.length b - 7);
      ( "cut inside the last header",
        fun b ->
          let last = List.hd (List.rev (framed_records b)) in
          String.length b - String.length last + 5 );
    ]

let test_corrupt_wal_interior_rejected () =
  let config = Config.fitness_guided ~seed:7 () in
  with_dir (fun dir ->
      checkb "crashed" true
        (crash_at ~dir ~config
           {
             Checkpoint.no_hooks with
             Checkpoint.on_append = (fun n -> if n = 40 then raise Crash);
           });
      let wal = Filename.concat dir "wal.log" in
      let bytes = read_file wal in
      let second = String.length (List.hd (framed_records bytes)) in
      List.iter
        (fun (what, at) ->
          (* Damage before the last record: never a torn tail. *)
          write_file wal (flip_byte bytes at);
          match Checkpoint.resume ~every:25 ~dir meta with
          | Ok _ -> Alcotest.failf "%s must be rejected" what
          | Error _ -> ())
        [
          ("a flipped byte a third into the journal", String.length bytes / 3);
          ("a flipped length byte in the second record", second + 3);
        ])

(* ---- record-log damage ------------------------------------------------ *)

(* Each damage to a logged campaign's records.log must make resume
   refuse, never restore a different history. *)
let test_record_log_damage_rejected () =
  let config = Config.fitness_guided ~seed:7 () in
  with_dir (fun dir ->
      checkb "crashed" true
        (crash_at ~dir ~config
           {
             Checkpoint.no_hooks with
             Checkpoint.on_append = (fun n -> if n = 260 then raise Crash);
           });
      let path = Filename.concat dir "records.log" in
      let log = read_file path in
      let records = framed_records log in
      checkb "several records logged" true (List.length records > 3);
      let refused what damage =
        damage ();
        (match Checkpoint.resume ~every:25 ~dir meta with
        | Ok cp ->
            Checkpoint.close cp;
            Alcotest.fail (what ^ ": resume must be refused")
        | Error _ -> ());
        write_file path log
      in
      refused "log shorter than the mark" (fun () ->
          write_file path (String.sub log 0 (String.length log - 1)));
      refused "flipped byte inside the mark" (fun () ->
          write_file path (flip_byte log (String.length log / 2)));
      refused "missing log under a non-zero mark" (fun () -> Sys.remove path);
      refused "records out of birth order" (fun () ->
          match records with
          | a :: b :: rest -> write_file path (String.concat "" (b :: a :: rest))
          | _ -> assert false);
      (* The untouched log still resumes. *)
      match Checkpoint.resume ~every:25 ~dir meta with
      | Ok cp -> Checkpoint.close cp
      | Error e -> Alcotest.fail e)

(* ---- every checkpoint decoder is total -------------------------------- *)

let files = [ "snapshot.afex"; "records.log"; "wal.log" ]

(* One file of a crashed campaign's checkpoint damaged — replaced by
   random bytes, or one byte of it replaced — must reach every decoder
   behind resume without an exception escaping. Half the cases damage
   the snapshot, and half of its byte replacements get a fresh
   checksum, so they reach the structural decoder and, when that
   accepts them, Explorer.restore. *)
let test_decoders_total () =
  let config = Config.fitness_guided ~seed:7 () in
  with_dir (fun dir ->
      checkb "crashed" true
        (crash_at ~dir ~config
           {
             Checkpoint.no_hooks with
             Checkpoint.on_append = (fun n -> if n = 260 then raise Crash);
           });
      let real = List.map (fun f -> (f, read_file (Filename.concat dir f))) files in
      let damaged (file, damage) =
        match damage with
        | `Noise s -> s
        | `Replace (i, c, rechecksum) ->
            let b = Bytes.of_string (List.assoc file real) in
            Bytes.set b i c;
            let s = Bytes.to_string b in
            if not rechecksum then s
            else begin
              let body = String.sub s 0 (String.length s - 4) in
              let crc = Bytes.create 4 in
              Bytes.set_int32_be crc 0
                (Int32.of_int (Afex_cluster.Transport.checksum body));
              body ^ Bytes.to_string crc
            end
      in
      let run ((file, _) as case) =
        List.iter
          (fun (f, s) ->
            write_file (Filename.concat dir f)
              (if f = file then damaged case else s))
          real;
        (match
           Checkpoint.Snapshot.decode
             (read_file (Filename.concat dir "snapshot.afex"))
         with
        | Ok _ | Error _ -> ());
        match Checkpoint.resume ~every:25 ~dir meta with
        | Error _ -> ()
        | Ok cp -> (
            Checkpoint.close cp;
            match Checkpoint.loaded_snapshot cp with
            | None -> ()
            | Some snap -> (
                match
                  Explorer.restore config (space ()) (executor ())
                    snap.Checkpoint.Snapshot.explorer
                with
                | Ok _ | Error _ -> ()))
      in
      let show ((file, damage) as case) =
        Printf.sprintf "%s %s%s" file
          (match damage with
          | `Noise s -> Printf.sprintf "replaced by %S" s
          | `Replace (i, c, rechecksum) ->
              Printf.sprintf "byte %d set to %#x%s" i (Char.code c)
                (if rechecksum then ", re-checksummed" else ""))
          (match run case with
          | () -> ""
          | exception e -> " raises " ^ Printexc.to_string e)
      in
      let arb =
        Prop.make ~show (fun rng ->
            let file =
              if Rng.bernoulli rng 0.5 then "snapshot.afex"
              else List.nth files (1 + Rng.int rng 2)
            in
            let size = String.length (List.assoc file real) in
            if size = 0 || Rng.bernoulli rng 0.2 then
              ( file,
                `Noise
                  (String.init (Rng.int rng 64) (fun _ ->
                       Char.chr (Rng.int rng 256))) )
            else
              ( file,
                `Replace
                  ( Rng.int rng size,
                    Char.chr (Rng.int rng 256),
                    file = "snapshot.afex" && Rng.bernoulli rng 0.5 ) ))
      in
      Prop.check ~count:500 ~seed:2029 "checkpoint decoders are total" arb
        (fun case ->
          run case;
          true))

(* ---- journal encoders ------------------------------------------------ *)

(* Journal records, snapshots and wire replies carry coverage through
   [Message.add_coverage]/[read_coverage], which run straight over the
   bitset's bytes. They must write the bytes the list codec wrote
   before them, kept here as the reference, and read back the same
   set, in a bitset that ends at its highest block. *)
let reference_coverage b blocks =
  let rec runs acc first last = function
    | [] -> List.rev ((first, last) :: acc)
    | i :: rest ->
        if i = last + 1 then runs acc first i rest
        else runs ((first, last) :: acc) i i rest
  in
  match blocks with
  | [] -> Message.add_uv b 0
  | first :: rest ->
      let rs = runs [] first first rest in
      Message.add_uv b (List.length rs);
      ignore
        (List.fold_left
           (fun prev_end (s, e) ->
             Message.add_uv b (s - prev_end - 1);
             Message.add_uv b (e - s);
             e)
           (-1) rs)

let blocks_of b =
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) b;
  List.rev !acc

let coverage_codec_agrees b =
  let blocks = blocks_of b in
  let fast = Buffer.create 64 and slow = Buffer.create 64 in
  Message.add_coverage fast b;
  reference_coverage slow blocks;
  String.equal (Buffer.contents fast) (Buffer.contents slow)
  &&
  let c = { Message.data = Buffer.contents fast; pos = 0 } in
  match Message.read_coverage c with
  | Error _ -> false
  | Ok back ->
      Message.remaining c = 0
      && Bitset.capacity back = List.fold_left (fun _ i -> i + 1) 0 blocks
      && Bitset.equal (Bitset.extend back (Bitset.capacity b)) b

let test_encoders_match_reference () =
  let sets capacity =
    let make f =
      let b = Bitset.create capacity in
      for i = 0 to capacity - 1 do
        if f i then Bitset.set b i
      done;
      b
    in
    [
      make (fun _ -> false);
      make (fun _ -> true);
      make (fun i -> i mod 2 = 0);
      make (fun i -> i mod 2 = 1);
      make (fun i -> i = capacity - 1);
      make (fun i -> i >= capacity / 2);
      make (fun i -> i mod 9 < 4);
    ]
  in
  List.iter
    (fun capacity ->
      List.iter
        (fun b ->
          if not (coverage_codec_agrees b) then
            Alcotest.failf "coverage codec disagrees on capacity %d, blocks [%s]"
              capacity
              (String.concat ";" (List.map string_of_int (blocks_of b))))
        (sets capacity))
    [ 0; 1; 7; 8; 9; 63; 64; 65 ];
  Prop.check ~count:300 "coverage codec matches the list codec"
    (Prop.pair (Prop.int_range 0 300)
       (Prop.list ~max_length:20
          (Prop.pair (Prop.int_range 0 299) (Prop.int_range 0 20))))
    (fun (capacity, runs) ->
      let b = Bitset.create capacity in
      List.iter
        (fun (first, len) ->
          for i = first to min (capacity - 1) (first + len) do
            Bitset.set b i
          done)
        runs;
      coverage_codec_agrees b)

(* ---- snapshot cost ---------------------------------------------------- *)

(* A checkpointed mysql campaign of [n] tests: minor words per test, and
   the final snapshot next to its record log. *)
let mysql_campaign ~dir n =
  let cp =
    match Checkpoint.start ~dir [ ("tests", string_of_int n) ] with
    | Ok cp -> cp
    | Error e -> Alcotest.fail e
  in
  let pool =
    Pool.create ~jobs:1 (Pool.Pure (Afex.Executor.of_target (Mysql.target ())))
  in
  let w0 = Gc.minor_words () in
  ignore
    (Pool.session ~checkpoint:cp ~iterations:n pool
       (Config.fitness_guided ~seed:7 ())
       (Mysql.space ()));
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Pool.shutdown pool;
  Checkpoint.close cp;
  let snap =
    match
      Checkpoint.Snapshot.decode
        (read_file (Filename.concat dir "snapshot.afex"))
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (words, snap, read_file (Filename.concat dir "records.log"))

(* A snapshot re-encodes only the records above the frontier, so the
   allocation per test must not grow with the campaign's length. *)
let test_snapshot_cost_tracks_new_tests () =
  let run n =
    with_dir (fun dir ->
        let words, snap, log = mysql_campaign ~dir n in
        let x = snap.Checkpoint.Snapshot.explorer in
        let mark = snap.Checkpoint.Snapshot.mark in
        let frontier =
          match x.Explorer.Snapshot.queue with
          | [] -> x.Explorer.Snapshot.iterations
          | q -> List.fold_left min max_int q - 1
        in
        let births =
          List.map (fun (c : Afex.Test_case.t) -> c.Afex.Test_case.birth)
            x.Explorer.Snapshot.records
        in
        checkb
          (Printf.sprintf "%d tests: snapshot = records above the frontier" n)
          true
          (births
          = List.init (x.Explorer.Snapshot.iterations - frontier) (fun i ->
                frontier + 1 + i));
        Alcotest.(check int)
          (Printf.sprintf "%d tests: the mark covers the frontier" n)
          frontier mark.Checkpoint.Snapshot.logged;
        Alcotest.(check int)
          (Printf.sprintf "%d tests: the mark covers the whole log" n)
          (String.length log) mark.Checkpoint.Snapshot.log_bytes;
        Alcotest.(check int)
          (Printf.sprintf "%d tests: the log holds the mark's count" n)
          mark.Checkpoint.Snapshot.logged
          (List.length (framed_records log));
        words)
  in
  let short = run 2_000 in
  let long = run 8_000 in
  if long > 1.15 *. short then
    Alcotest.failf
      "minor words per test grew from %.0f at 2,000 tests to %.0f at 8,000 \
       (limit 1.15x)"
      short long

let test_stop_incompatible () =
  with_dir (fun dir ->
      match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          Fun.protect
            ~finally:(fun () -> Checkpoint.close cp)
            (fun () ->
              let pool = Pool.create ~jobs:1 (Pool.Pure (executor ())) in
              Fun.protect
                ~finally:(fun () -> Pool.shutdown pool)
                (fun () ->
                  Alcotest.check_raises "stop + checkpoint rejected"
                    (Invalid_argument
                       "Pool.session: a checkpoint cannot capture a stop \
                        predicate; bound a checkpointed campaign with \
                        iterations or a time budget")
                    (fun () ->
                      ignore
                        (Pool.session ~checkpoint:cp
                           ~stop:{ Afex.Session.matches = (fun _ -> false); count = 1 }
                           ~batch_size:8 ~iterations:40 pool
                           (Config.fitness_guided ~seed:7 ())
                           (space ()))))))

let suite =
  [
    ("snapshot codec round-trips bit-identically", `Quick, test_codec_roundtrip);
    ("truncated snapshot rejected cleanly", `Quick, test_truncation_rejected);
    ("bit-flipped snapshot rejected cleanly", `Quick, test_bitflip_rejected);
    ("capture/restore continues every strategy", `Quick, test_capture_restore_continues);
    ("start refuses an existing checkpoint", `Quick, test_start_refuses_existing);
    ("resume refuses an empty directory", `Quick, test_resume_refuses_empty);
    ("resume rejects mismatched campaign metadata", `Quick, test_meta_mismatch_rejected);
    ("version-5 checkpoints are refused", `Quick, test_version_5_refused);
    ("kill-point sweep resumes byte-identically", `Quick, test_kill_point_sweep);
    ("crash between rename and truncate recovers", `Quick,
      test_crash_between_rename_and_truncate);
    ("double crash recovers", `Quick, test_double_crash);
    ("crash between log append and rename recovers", `Quick,
      test_crash_between_log_append_and_rename);
    ("damaged record log rejected", `Quick, test_record_log_damage_rejected);
    ("checkpoint decoders are total (property)", `Quick, test_decoders_total);
    ("journal encoders match reference", `Quick, test_encoders_match_reference);
    ("snapshot cost tracks new tests", `Quick,
      test_snapshot_cost_tracks_new_tests);
    ("torn journal tail is re-executed", `Quick, test_torn_wal_tail_tolerated);
    ("interior journal corruption rejected", `Quick, test_corrupt_wal_interior_rejected);
    ("stop predicates cannot be checkpointed", `Quick, test_stop_incompatible);
    ("restore rejects points outside the subspace", `Quick,
      test_restore_rejects_foreign_points);
  ]
