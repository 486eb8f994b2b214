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
          Checkpoint.write_snapshot cp
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
          Checkpoint.write_snapshot cp
            (Explorer.create (Config.fitness_guided ~seed:1 ()) (space ())
               (executor ()));
          Checkpoint.close cp);
      match Checkpoint.resume ~dir (("seed", "8") :: List.remove_assoc "seed" meta) with
      | Ok _ -> Alcotest.fail "resume under a different seed must be refused"
      | Error e -> checkb "names the mismatched key" true (contains e "seed"))

(* A version-5 checkpoint as the text-format release wrote it, a
   version-6 one, whose records carry their faults as scenario text, and
   a version-7 one, whose snapshot carries the pool's master RNG (each
   made by [explore -t apache -n 40 --seed 7 --checkpoint]): the decoder
   and resume must all refuse them by their header. *)
let test_version_5_refused () =
  let expected = "afex-checkpoint 9" in
  List.iter
    (fun version ->
      let golden = Filename.concat "golden" ("checkpoint_v" ^ version) in
      (match
         Checkpoint.Snapshot.decode
           (read_file (Filename.concat golden "snapshot.afex"))
       with
      | Ok _ -> Alcotest.failf "a version-%s snapshot must be refused" version
      | Error e -> checkb "names the expected header" true (contains e expected));
      with_dir (fun dir ->
          List.iter
            (fun f ->
              write_file (Filename.concat dir f)
                (read_file (Filename.concat golden f)))
            [ "snapshot.afex"; "records.log"; "wal.log" ];
          match Checkpoint.resume ~dir meta with
          | Ok _ ->
              Alcotest.failf "resume of a version-%s checkpoint must be refused"
                version
          | Error e ->
              checkb "resume names the expected header" true
                (contains e expected)))
    [ "5"; "6"; "7"; "8" ]

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

(* [session_exports]' schedule on a bare explorer, up to the sync
   watermark [upto]: a window of 8 tests, drained at every multiple of
   25, each run by the executor at its release. The memo cache only
   spares a rerun of a deterministic executor, so the explorer sees the
   session's outcomes in the session's order. *)
let explorer_at config upto =
  let ex = Explorer.create config (space ()) (executor ()) in
  let window = Queue.create () in
  let submitted = ref 0 and released = ref 0 and next_sync = ref 25 in
  let rec go () =
    if !released >= !next_sync then begin
      next_sync := !next_sync + 25;
      go ()
    end
    else if
      !submitted - !released < 8 && !submitted < !next_sync && !submitted < upto
    then begin
      (match Explorer.next ex with
      | Some p -> Queue.push p window
      | None -> Alcotest.fail "the explorer ran dry");
      incr submitted;
      go ()
    end
    else if !released < !submitted then begin
      ignore (Explorer.execute ex (Queue.pop window));
      incr released;
      go ()
    end
  in
  go ();
  ex

(* The explorer a resume restores rebuilds each index's observation
   order from the records: both indexes must equal those of the
   uninterrupted explorer at the snapshot's iteration. *)
let check_restored_indexes ~dir ~config =
  match Checkpoint.resume ~every:25 ~dir meta with
  | Error e -> Alcotest.fail e
  | Ok cp -> (
      Checkpoint.close cp;
      let snap = Option.get (Checkpoint.loaded_snapshot cp) in
      let x = snap.Checkpoint.Snapshot.explorer in
      match Explorer.restore config (space ()) (executor ()) x with
      | Error e -> Alcotest.fail e
      | Ok restored ->
          let at = x.Explorer.Snapshot.iterations in
          let live = explorer_at config at in
          Alcotest.(check int) "same iteration" at (Explorer.iterations live);
          List.iter
            (fun (what, index) ->
              let module Index = Afex_quality.Index in
              Alcotest.(check int)
                (Printf.sprintf "%s index length at %d" what at)
                (Index.length (index live))
                (Index.length (index restored));
              Alcotest.(check (list (list int)))
                (Printf.sprintf "%s index clusters at %d" what at)
                (Index.clusters (index live))
                (Index.clusters (index restored)))
            [
              ("failure", Explorer.failure_index); ("crash", Explorer.crash_index);
            ])

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
          check_restored_indexes ~dir ~config;
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

(* The journal's groups in an uninterrupted campaign: each as the
   running append count of its first record, and its size. *)
let journal_groups config =
  let groups = ref [] and handle = ref None and writes = ref 0 in
  let on_append n =
    let w = (Checkpoint.stats (Option.get !handle)).Checkpoint.wal_writes in
    if w <> !writes then begin
      writes := w;
      groups := (n, 1) :: !groups
    end
    else
      match !groups with
      | (first, size) :: rest -> groups := (first, size + 1) :: rest
      | [] -> assert false
  in
  with_dir (fun dir ->
      match
        Checkpoint.start ~hooks:{ Checkpoint.no_hooks with Checkpoint.on_append }
          ~every:25 ~dir meta
      with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          handle := Some cp;
          ignore (session_exports ~checkpoint:cp config);
          Checkpoint.close cp);
  List.rev !groups

(* A kill right after a group's write leaves that whole group in the
   journal, ahead of what the explorer absorbed; a kill inside the write
   leaves its first records whole and the next one torn. Resume replays
   the whole records, drops the torn one and re-runs it, and exports
   what the uninterrupted campaign exports. So does a crash raised from
   [on_append] halfway through a group's callbacks. *)
let test_torn_group_resumes () =
  let config = Config.fitness_guided ~seed:7 () in
  let base_json, base_csv = session_exports config in
  let first, size =
    match
      List.find_opt (fun (first, size) -> first > 100 && size >= 4)
        (journal_groups config)
    with
    | Some g -> g
    | None -> Alcotest.fail "no group of four records"
  in
  let resumes dir =
    let json, csv = resume_to_end ~dir ~config in
    checks "JSON identical" base_json json;
    checks "CSV identical" base_csv csv
  in
  with_dir (fun dir ->
      checkb "crashed after the group's write" true
        (crash_at ~dir ~config
           {
             Checkpoint.no_hooks with
             Checkpoint.on_append = (fun n -> if n = first then raise Crash);
           });
      let wal = Filename.concat dir "wal.log" in
      let bytes = read_file wal in
      let records = framed_records bytes in
      let n = List.length records in
      checkb "the whole group is journaled" true (n >= size);
      (* The group is the journal's last [size] records: keep its first
         two and part of its third. *)
      let third =
        List.fold_left ( + ) 0
          (List.map String.length (List.filteri (fun i _ -> i < n - size + 2) records))
      in
      write_file wal (String.sub bytes 0 (third + 20));
      resumes dir);
  with_dir (fun dir ->
      checkb "crashed halfway through the group's callbacks" true
        (crash_at ~dir ~config
           {
             Checkpoint.no_hooks with
             Checkpoint.on_append =
               (fun n -> if n = first + (size / 2) then raise Crash);
           });
      resumes dir)

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

(* Every outcome of a 3,000-test seed-9 session of mysql, apache and
   the replicated-consensus simulator, with its point, recorded as the
   executor returns it. *)
let session_outcomes =
  lazy
    (let module Replsim = Afex_simtarget.Replsim in
     let module Replfault = Afex_injector.Replfault in
     let record sub (exec : Afex.Executor.t) =
       let log = ref [] in
       let recording =
         Afex.Executor.of_scenario_fn ~total_blocks:exec.Afex.Executor.total_blocks
           ~description:"recording" (fun s ->
             let o = exec.Afex.Executor.run_scenario s in
             log := o :: !log;
             o)
       in
       let r =
         Afex.Session.run ~iterations:3000 (Config.fitness_guided ~seed:9 ()) sub
           recording
       in
       List.map2
         (fun (c : Afex.Test_case.t) o -> (c.Afex.Test_case.point, o))
         r.Afex.Session.executed (List.rev !log)
     in
     let cluster = Replsim.make ~n:12 ~rounds:300 ~seed:11 () in
     [
       ("mysql", record (Mysql.space ()) (Afex.Executor.of_target (Mysql.target ())));
       ("apache", record (space ()) (executor ()));
       ( "replsim",
         record
           (Replfault.multi_space ~arms:2 cluster)
           (Afex.Executor.of_scenario_fn
              ~total_blocks:(Replsim.total_blocks cluster)
              ~description:(Replfault.description cluster)
              (Replfault.run_scenario cluster)) );
     ])

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
      (* whole words of ones, runs across word boundaries, and runs that
         reach the last block *)
      make (fun i -> i >= 32 && i < 96);
      make (fun i -> i mod 50 < 40);
      make (fun i -> i mod 33 >= 20);
      make (fun i -> i >= capacity - 40);
      make (fun i -> i mod 64 = 31 || i mod 64 = 32);
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
    [ 0; 1; 7; 8; 9; 31; 32; 33; 63; 64; 65; 127; 128; 129; 1000; 4095; 4096 ];
  List.iter
    (fun (target, outcomes) ->
      List.iteri
        (fun i (_, (o : Afex_injector.Outcome.t)) ->
          if not (coverage_codec_agrees o.Afex_injector.Outcome.coverage) then
            Alcotest.failf "coverage codec disagrees on %s test %d" target (i + 1))
        outcomes)
    (Lazy.force session_outcomes);
  Prop.check ~count:300 "coverage codec matches the list codec"
    (Prop.pair (Prop.int_range 0 4096)
       (Prop.list ~max_length:20
          (Prop.pair (Prop.int_range 0 4095) (Prop.int_range 0 300))))
    (fun (capacity, runs) ->
      let b = Bitset.create capacity in
      List.iter
        (fun (first, len) ->
          for i = first to min (capacity - 1) (first + len) do
            Bitset.set b i
          done)
        runs;
      coverage_codec_agrees b)

(* Wire replies, journal records and logged records carry a fault as
   its five fields through [Message.add_fault]/[read_fault]: every
   fault must come back equal from exactly the bytes written, names
   with spaces and extreme integers included, and every cut of those
   bytes must read as an error. *)
let test_fault_codec_roundtrips () =
  let module Fault = Afex_injector.Fault in
  let roundtrips f =
    let b = Buffer.create 32 in
    Message.add_fault b f;
    let bytes = Buffer.contents b in
    let c = { Message.data = bytes; pos = 0 } in
    Message.read_fault c = Ok f
    && Message.remaining c = 0
    && List.for_all
         (fun n ->
           Result.is_error
             (Message.read_fault { Message.data = String.sub bytes 0 n; pos = 0 }))
         (List.init (String.length bytes) Fun.id)
  in
  List.iter
    (fun n ->
      let f =
        { Fault.test_id = n; func = "read"; call_number = n; errno = "EIO";
          retval = n }
      in
      if not (roundtrips f) then
        Alcotest.failf "fault codec disagrees at %d" n)
    [ 0; 1; 63; 64; -64; -65; 1_000_000_007; max_int; min_int ];
  let small = Prop.int_range (-1000) 1000
  and big = Prop.int_range 0 (1 lsl 40)
  and name =
    Prop.choose [ ""; "read"; "pthread_mutex_lock"; "a b"; "ENOMEM"; "%"; "\n" ]
  in
  Prop.check ~count:500 "the fault codec round-trips"
    (Prop.pair (Prop.pair (Prop.pair big big) small) (Prop.pair name name))
    (fun (((test_id, call_number), retval), (func, errno)) ->
      roundtrips { Fault.test_id; func; call_number; errno; retval }
      && roundtrips
           { Fault.test_id = -test_id; func; call_number = -call_number;
             errno; retval = retval * 1_000_003 });
  let rng = Rng.create 17 in
  List.iter
    (fun (target, sub) ->
      for _ = 1 to 300 do
        let f =
          Afex_injector.Plugin.fault_of_point_exn sub
            (Afex_faultspace.Subspace.random_point rng sub)
        in
        if not (roundtrips f) then
          Alcotest.failf "%s: fault codec disagrees on %s" target
            (Fault.to_string f)
      done)
    [
      ("mysql", Mysql.space ());
      ("apache", Apache.space ());
      ("coreutils", Afex_simtarget.Coreutils.space ());
      ("mongodb-0.8", Afex_simtarget.Mongodb.space_v08 ());
      ("mongodb-2.0", Afex_simtarget.Mongodb.space_v20 ());
    ]

(* The framing the journal and the record log shared before records
   were framed in place, kept as the reference. *)
let reference_framed fill =
  let b = Buffer.create 256 in
  fill b;
  let payload = Buffer.contents b in
  Buffer.clear b;
  let add_u32 v = Buffer.add_int32_be b (Int32.of_int v) in
  add_u32 (String.length payload);
  add_u32 (Afex_cluster.Transport.checksum (Buffer.contents b));
  add_u32 (Afex_cluster.Transport.checksum payload);
  Buffer.add_string b payload;
  Buffer.contents b

let test_framing_matches_reference () =
  let payload_arb =
    Prop.list ~max_length:8
      (Prop.map ~show:(Printf.sprintf "%S")
         (fun n -> String.init n (fun i -> Char.chr (((i * 37) + n) land 0xff)))
         (Prop.int_range 0 3000))
  in
  let add p b = Buffer.add_string b p in
  Prop.check ~count:200 "framing matches the reference" payload_arb
    (fun payloads ->
      let f = Checkpoint.Framer.create () in
      List.iter
        (fun p ->
          add p (Checkpoint.Framer.start f);
          Checkpoint.Framer.finish f)
        payloads;
      String.equal
        (Checkpoint.Framer.contents f)
        (String.concat "" (List.map (fun p -> reference_framed (add p)) payloads)));
  (* A journal is the reference framing of each record's payload: the
     point's components, then the outcome as a reply encoded with fresh
     codec state. *)
  with_dir (fun dir ->
      let exec = Afex.Executor.of_target (Mysql.target ()) in
      let sub = Mysql.space () in
      let rng = Rng.create 5 in
      let records =
        List.init 200 (fun i ->
            let p = Afex_faultspace.Subspace.random_point rng sub in
            let o =
              exec.Afex.Executor.run_scenario
                (Afex_faultspace.Subspace.values sub p)
            in
            (i + 1, p, o))
      in
      (match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          List.iter
            (fun (seq, point, o) ->
              Checkpoint.stage cp ~point ~seq o;
              if seq mod 7 = 0 then Checkpoint.flush cp)
            records;
          Checkpoint.flush cp;
          Checkpoint.close cp);
      let expected =
        String.concat ""
          (List.map
             (fun (seq, point, o) ->
               reference_framed (fun b ->
                   let components = Afex_faultspace.Point.to_list point in
                   Message.add_uv b (List.length components);
                   List.iter (Message.add_uv b) components;
                   Message.V2.encode_reply (Message.V2.server_enc ()) b
                     (Message.Scenario_result (Message.report_of_outcome ~seq o))))
             records)
      in
      checkb "journal bytes equal the reference framing" true
        (String.equal expected (read_file (Filename.concat dir "wal.log"))))

(* A journal record is the reference framing of the point's components
   and the outcome as a reply from a fresh encoder, whatever the group
   it was written in. Every outcome of the three sessions is checked,
   apache's crash stacks among them, and so are stacks that repeat a
   frame within themselves and across the two, and empty ones. *)
let test_journal_records_match_reference () =
  let reference seq point o =
    reference_framed (fun b ->
        let components = Afex_faultspace.Point.to_list point in
        Message.add_uv b (List.length components);
        List.iter (Message.add_uv b) components;
        Message.V2.encode_reply (Message.V2.server_enc ()) b
          (Message.Scenario_result (Message.report_of_outcome ~seq o)))
  in
  let sessions = Lazy.force session_outcomes in
  let crafted =
    let point, (o : Afex_injector.Outcome.t) = List.hd (List.assoc "mysql" sessions) in
    List.map
      (fun (injection_stack, crash_stack) ->
        (point, { o with Afex_injector.Outcome.injection_stack; crash_stack }))
      [
        (Some [ "a"; "b"; "a"; "a" ], Some [ "b"; "c"; "a"; "c" ]);
        (Some [], None);
        (None, Some []);
        (Some [], Some [ "x"; "x" ]);
        (Some [ "only" ], Some [ "only" ]);
        (None, None);
      ]
  in
  checkb "apache crashes carry stacks" true
    (List.exists
       (fun (_, (o : Afex_injector.Outcome.t)) ->
         o.Afex_injector.Outcome.crash_stack <> None)
       (List.assoc "apache" sessions));
  List.iter
    (fun (what, outcomes) ->
      with_dir (fun dir ->
          (match Checkpoint.start ~dir meta with
          | Error e -> Alcotest.fail e
          | Ok cp ->
              (* Groups of 1, 2, ..., 9 records, over and over. *)
              let staged = ref 0 and size = ref 1 in
              List.iteri
                (fun i (point, o) ->
                  Checkpoint.stage cp ~point ~seq:(i + 1) o;
                  incr staged;
                  if !staged = !size then begin
                    Checkpoint.flush cp;
                    staged := 0;
                    size := (!size mod 9) + 1
                  end)
                outcomes;
              Checkpoint.flush cp;
              Checkpoint.close cp);
          let expected =
            String.concat ""
              (List.mapi (fun i (point, o) -> reference (i + 1) point o) outcomes)
          in
          checkb (what ^ ": journal bytes equal the reference") true
            (String.equal expected (read_file (Filename.concat dir "wal.log")))))
    (("crafted stacks", crafted) :: sessions)

(* Staging and flushing a journal record allocates nothing once the
   handle's buffers have grown: about 103 minor words per outcome while
   each record built a report, a reply box, a framing closure, a point
   list and interned its frames through a hash table. *)
let test_journal_allocation_gate () =
  let outcomes = List.assoc "mysql" (Lazy.force session_outcomes) in
  with_dir (fun dir ->
      match Checkpoint.start ~dir meta with
      | Error e -> Alcotest.fail e
      | Ok cp ->
          let journal seq0 =
            List.iteri
              (fun i (point, o) ->
                Checkpoint.stage cp ~point ~seq:(seq0 + i) o;
                if i mod 32 = 31 then Checkpoint.flush cp)
              outcomes;
            Checkpoint.flush cp
          in
          journal 1;
          let w0 = Gc.minor_words () in
          journal (List.length outcomes + 1);
          let words = (Gc.minor_words () -. w0) /. float_of_int (List.length outcomes) in
          Checkpoint.close cp;
          if words > 2.0 then
            Alcotest.failf
              "the journal allocates %.1f minor words per outcome (ceiling 2)"
              words)

(* The pool journals a window's known outcomes in one write: 94 writes
   for a 3,000-test mysql campaign, where one write per outcome made
   3,000. *)
(* A 3,000-test seed-9 mysql campaign checkpointed into [dir] at the
   default cadence, and its checkpoint's counts. *)
let seed9_campaign dir =
  let cp =
    match Checkpoint.start ~every:500 ~dir [ ("probe", "1") ] with
    | Ok cp -> cp
    | Error e -> Alcotest.fail e
  in
  let pool =
    Pool.create ~jobs:1 (Pool.Pure (Afex.Executor.of_target (Mysql.target ())))
  in
  ignore
    (Pool.session ~checkpoint:cp ~iterations:3000 pool
       (Config.fitness_guided ~seed:9 ())
       (Mysql.space ()));
  Pool.shutdown pool;
  let st = Checkpoint.stats cp in
  Checkpoint.close cp;
  st

let test_journal_group_commit () =
  with_dir (fun dir ->
      let st = seed9_campaign dir in
      Alcotest.(check int) "every outcome journaled" 3000
        st.Checkpoint.wal_appends;
      if st.Checkpoint.wal_writes > 100 then
        Alcotest.failf "%d journal writes for 3,000 outcomes (ceiling 100)"
          st.Checkpoint.wal_writes)

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

(* The snapshot holds the explorer's live state and the indexes'
   distinct traces, which a campaign's length barely moves; it held
   every failing test's observation too, so it grew from 37,246 bytes at
   8,000 tests to 56,180 at 32,000 (1.51x). *)
let test_snapshot_size_tracks_live_state () =
  let size n =
    with_dir (fun dir ->
        ignore (mysql_campaign ~dir n);
        String.length (read_file (Filename.concat dir "snapshot.afex")))
  in
  let short = size 8_000 in
  let long = size 32_000 in
  if float_of_int long > 1.25 *. float_of_int short then
    Alcotest.failf
      "the final snapshot grew from %d bytes at 8,000 tests to %d at 32,000 \
       (limit 1.25x)"
      short long

(* The bytes of a checkpointed mysql campaign, computed before the queue
   kept fitness in a column of its own: a snapshot must still hold each
   queued record's aged fitness, and the record log each retired
   record's final one. The record log's pin dates from then; the
   snapshot's was recomputed once for version 9, which equals the
   version-8 file (31,464 bytes, 9f206faa...) with the header digit, the
   two indexes' observation lists (1,217 and 399 entries) and the
   checksum trailer set aside. *)
let test_checkpoint_bytes_pinned () =
  with_dir (fun dir ->
      ignore (seed9_campaign dir);
      let file name expect_bytes expect_md5 =
        let s = read_file (Filename.concat dir name) in
        Alcotest.(check int) (name ^ " bytes") expect_bytes (String.length s);
        checks (name ^ " digest") expect_md5 (Digest.to_hex (Digest.string s))
      in
      file "snapshot.afex" 29_844 "9bc41182a0f45ed2e768becc4941d57e";
      file "records.log" 389_646 "f953bab968c96ba567a41f8b9dfe91ef";
      file "wal.log" 0 (Digest.to_hex (Digest.string "")))

(* No live session queues a NaN fitness or records a NaN sample (aging
   retires a NaN at once, since [nan >= x] is false), but a snapshot
   whose checksum holds can carry one, and the next parent draw would
   raise out of the resumed session. *)
let test_restore_rejects_nan () =
  let config = Config.fitness_guided ~seed:7 () in
  let ex = Explorer.create config (space ()) (executor ()) in
  for _ = 1 to 200 do
    match Explorer.next ex with
    | Some p -> ignore (Explorer.execute ex p)
    | None -> ()
  done;
  let snap = Explorer.capture ex in
  let restores (s : Explorer.Snapshot.t) =
    let bytes =
      Checkpoint.Snapshot.encode
        {
          Checkpoint.Snapshot.meta;
          mark = { Checkpoint.Snapshot.logged = 0; log_bytes = 0 };
          explorer = s;
        }
    in
    match Checkpoint.Snapshot.decode bytes with
    | Error e -> Alcotest.failf "checksummed snapshot refused: %s" e
    | Ok decoded -> (
        match
          Explorer.restore config (space ()) (executor ())
            decoded.Checkpoint.Snapshot.explorer
        with
        | Ok _ -> true
        | Error _ -> false)
  in
  checkb "the untouched snapshot restores" true (restores snap);
  let queued =
    match snap.Explorer.Snapshot.queue with
    | b :: _ -> b
    | [] -> Alcotest.fail "nothing queued"
  in
  let records =
    List.map
      (fun (c : Afex.Test_case.t) ->
        if c.Afex.Test_case.birth = queued then
          { c with Afex.Test_case.fitness = Float.nan }
        else c)
      snap.Explorer.Snapshot.records
  in
  checkb "a queued NaN fitness refused" false
    (restores { snap with Explorer.Snapshot.records });
  let sensitivity = Array.copy snap.Explorer.Snapshot.sensitivity in
  let axis =
    match
      List.find_opt
        (fun i -> sensitivity.(i) <> [])
        (List.init (Array.length sensitivity) Fun.id)
    with
    | Some i -> i
    | None -> Alcotest.fail "no sensitivity samples"
  in
  sensitivity.(axis) <- Float.nan :: List.tl sensitivity.(axis);
  checkb "a NaN sensitivity sample refused" false
    (restores { snap with Explorer.Snapshot.sensitivity })

(* A snapshot holds no index's observation order, so restore rebuilds it
   from the records and refuses a snapshot whose checksum holds but
   whose records and indexes disagree: a record whose crash stack the
   crash index lacks, or an index entry that no record observes. *)
let test_restore_rejects_unobserved_traces () =
  let config = Config.fitness_guided ~seed:7 () in
  let ex = Explorer.create config (space ()) (executor ()) in
  for _ = 1 to 200 do
    match Explorer.next ex with
    | Some p -> ignore (Explorer.execute ex p)
    | None -> ()
  done;
  let snap = Explorer.capture ex in
  let restore (s : Explorer.Snapshot.t) =
    let bytes =
      Checkpoint.Snapshot.encode
        {
          Checkpoint.Snapshot.meta;
          mark = { Checkpoint.Snapshot.logged = 0; log_bytes = 0 };
          explorer = s;
        }
    in
    match Checkpoint.Snapshot.decode bytes with
    | Error e -> Alcotest.failf "checksummed snapshot refused: %s" e
    | Ok decoded ->
        Explorer.restore config (space ()) (executor ())
          decoded.Checkpoint.Snapshot.explorer
  in
  (match restore snap with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the untouched snapshot is refused: %s" e);
  let stack =
    match
      List.find_map
        (fun (c : Afex.Test_case.t) -> c.Afex.Test_case.crash_stack)
        snap.Explorer.Snapshot.records
    with
    | Some s -> s
    | None -> Alcotest.fail "no crash in 200 apache tests"
  in
  let with_crash_stacks f =
    {
      snap with
      Explorer.Snapshot.records =
        List.map
          (fun (c : Afex.Test_case.t) ->
            { c with Afex.Test_case.crash_stack = f c.Afex.Test_case.crash_stack })
          snap.Explorer.Snapshot.records;
    }
  in
  List.iter
    (fun (what, s) ->
      match restore s with
      | Ok _ -> Alcotest.failf "%s: restore must refuse it" what
      | Error e -> checkb (what ^ ": names the restore") true (contains e "restore"))
    [
      ( "a crash stack with a frame the intern table lacks",
        with_crash_stacks (function
          | Some s when s = stack -> Some ("no such frame" :: s)
          | other -> other) );
      ( "a crash stack of known frames that is no entry",
        with_crash_stacks (function
          | Some s when s = stack -> Some (s @ s)
          | other -> other) );
      ( "a crash trace that no record observes",
        with_crash_stacks (function
          | Some s when s = stack -> None
          | other -> other) );
    ]

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
                        iterations")
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
    ("fault codec round-trips", `Quick, test_fault_codec_roundtrips);
    ("framing matches reference", `Quick, test_framing_matches_reference);
    ("journal records match the reply reference", `Quick,
      test_journal_records_match_reference);
    ("journal allocation gate", `Quick, test_journal_allocation_gate);
    ("journal writes one group per window", `Quick, test_journal_group_commit);
    ("snapshot cost tracks new tests", `Quick,
      test_snapshot_cost_tracks_new_tests);
    ("checkpoint bytes pinned across versions", `Quick, test_checkpoint_bytes_pinned);
    ("restore rejects NaN fitness and samples", `Quick, test_restore_rejects_nan);
    ("restore rejects traces records and indexes disagree on", `Quick,
      test_restore_rejects_unobserved_traces);
    ("snapshot size tracks live state", `Quick,
      test_snapshot_size_tracks_live_state);
    ("torn journal tail is re-executed", `Quick, test_torn_wal_tail_tolerated);
    ("torn journal group resumes byte-identically", `Quick,
      test_torn_group_resumes);
    ("interior journal corruption rejected", `Quick, test_corrupt_wal_interior_rejected);
    ("stop predicates cannot be checkpointed", `Quick, test_stop_incompatible);
    ("restore rejects points outside the subspace", `Quick,
      test_restore_rejects_foreign_points);
  ]
