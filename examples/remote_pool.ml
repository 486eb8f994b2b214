(* Distributed dispatch: the same campaign in-process and on two remote
   node managers reached over the wire protocol — with bit-identical
   explored history.

   The managers here are loopback servers (real server loop, real
   socketpair framing, own domain), so the example runs on one machine;
   `afex serve` exposes the identical server loop over TCP. The pool
   drives both managers from its single-domain event loop, several
   requests pipelined on each connection.

   Run with: dune exec examples/remote_pool.exe *)

module Pool = Afex_cluster.Pool
module RM = Afex_cluster.Remote_manager
module Transport = Afex_cluster.Transport
module Config = Afex.Config
module Session = Afex.Session
module Test_case = Afex.Test_case

let history (r : Session.result) =
  List.map
    (fun (c : Test_case.t) -> Afex_faultspace.Point.key c.Test_case.point)
    r.Session.executed

let () =
  let target = Afex_simtarget.Apache.target () in
  let sub = Afex_simtarget.Apache.space () in
  let executor = Afex.Executor.of_target target in
  let config = Config.fitness_guided ~seed:42 () in
  let iterations = 800 in

  let local, _ =
    Pool.run ~jobs:1 ~iterations config sub (Pool.Pure executor)
  in

  (* Two managers behind the wire, up to eight requests in flight
     between them; --jobs 0 sends every test over the wire. *)
  let lb1 = RM.Loopback.create ~name:"manager-1" ~executor () in
  let lb2 = RM.Loopback.create ~name:"manager-2" ~executor () in
  let remote, stats =
    Pool.run
      ~remotes:[ RM.Loopback.spec lb1; RM.Loopback.spec lb2 ]
      ~inflight:8 ~jobs:0 ~iterations config sub (Pool.Pure executor)
  in
  RM.Loopback.shutdown lb1;
  RM.Loopback.shutdown lb2;

  (* A hostile wire: frames dropped, duplicated and bit-flipped. The
     client reconnects, a request held past 50 ms forfeits its
     connection, and every stranded test re-runs locally — outcomes and
     history must be untouched. *)
  let chaos =
    { Transport.drop = 0.2; duplicate = 0.1; truncate = 0.05; bitflip = 0.1; garbage = 0.1 }
  in
  let lb3 =
    RM.Loopback.create ~name:"chaotic" ~chaos_to_server:chaos
      ~chaos_to_client:chaos ~chaos_seed:7 ~recv_timeout_ms:40 ~executor ()
  in
  let chaotic, chaos_stats =
    Pool.run
      ~remotes:[ RM.Loopback.spec ~max_attempts:8 ~backoff_ms:0.2 lb3 ]
      ~request_timeout_ms:50 ~jobs:1 ~iterations config sub (Pool.Pure executor)
  in
  RM.Loopback.shutdown lb3;

  Format.printf "in-process : %a@." Session.pp_summary local;
  Format.printf "2 managers : %a@." Session.pp_summary remote;
  Format.printf "  %d of %d runs went over the wire, %d fallbacks@."
    stats.Pool.remote_runs stats.Pool.executed stats.Pool.remote_fallbacks;
  Format.printf "chaotic    : %a@." Session.pp_summary chaotic;
  Format.printf "  %d wire runs, %d local fallbacks under transport faults@."
    chaos_stats.Pool.remote_runs chaos_stats.Pool.remote_fallbacks;
  let ok_remote = history remote = history local in
  let ok_chaos = history chaotic = history local in
  Format.printf "two-manager history identical: %b@." ok_remote;
  Format.printf "chaotic history identical:     %b@." ok_chaos;
  if not (ok_remote && ok_chaos) then exit 1
