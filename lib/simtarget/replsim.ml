module Rng = Afex_stats.Rng
module Bitset = Afex_stats.Bitset

type kind = Kill | Drop_acks | Stale_backup | Delayed_rejoin

let kind_to_string = function
  | Kill -> "kill"
  | Drop_acks -> "drop_acks"
  | Stale_backup -> "stale_backup"
  | Delayed_rejoin -> "delayed_rejoin"

let kind_of_string = function
  | "kill" -> Ok Kill
  | "drop_acks" -> Ok Drop_acks
  | "stale_backup" -> Ok Stale_backup
  | "delayed_rejoin" -> Ok Delayed_rejoin
  | s -> Error (Printf.sprintf "unknown fault kind %S" s)

let all_kinds = [ Kill; Drop_acks; Stale_backup; Delayed_rejoin ]

type fault = { round : int; replica : int; kind : kind; peer : int }

type config = {
  n : int;
  rounds : int;
  seed : int;
  churn_period : int;
  recovery_rounds : int;
  backup_period : int;
  drop_window : int;
  liveness_k : int;
  round_ms : float;
}

type violation = {
  invariant : string;
  v_round : int;
  v_replica : int;
  site : string list;
}

type run_result = {
  rounds_run : int;
  commits : int;
  elections : int;
  recoveries : int;
  violation : violation option;
  coverage : Bitset.t;
  triggered : bool;
  leader_trace : int array;
  elapsed_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Coverage block layout: a fixed-width strip per replica.             *)
(* ------------------------------------------------------------------ *)

let b_follower_ack = 0
let b_leader = 1
let b_recovery_start = 2
let b_recovery_done = 3
let b_recovery_overlap = 4 (* an injected fault landed inside this replica's window *)
let b_kill_mid_recovery = 5
let b_stale_backup_used = 6
let b_catchup_blocked = 7
let b_election_during_recovery = 8
let b_acks_dropped = 9
let b_delayed_rejoin = 10
let b_violation = 11
let blocks_per_replica = 12

(* ------------------------------------------------------------------ *)
(* Violation sites: synthetic stacks, stable per site. No round or     *)
(* replica numbers — redundancy clustering must see one site as one    *)
(* stack, exactly like a real crash deduplicated by its backtrace.     *)
(* ------------------------------------------------------------------ *)

let site_stale_revote =
  [
    "recovery@replsim/election.c:88";
    "replsim:request_vote";
    "replsim:recover_rejoin";
    "invariant:leader-uniqueness";
  ]

let site_recovery_crash =
  [
    "recovery@replsim/catchup.c:214";
    "replsim:catchup_abort";
    "replsim:recover_rejoin";
    "invariant:recovery-crash";
  ]

let site_prefix =
  [ "replsim/log.c:132"; "replsim:commit_apply"; "invariant:log-prefix-agreement" ]

let site_durability =
  [ "replsim/election.c:156"; "replsim:install_leader"; "invariant:committed-durability" ]

let site_liveness = [ "replsim/progress.c:40"; "replsim:tick"; "invariant:liveness" ]

let deep_invariants = [ "leader-uniqueness"; "recovery-crash" ]
let is_deep v = List.mem v.invariant deep_invariants

let pp_violation ppf v =
  Format.fprintf ppf "%s at round %d (replica %d)" v.invariant v.v_round v.v_replica

(* ------------------------------------------------------------------ *)
(* The simulation proper                                               *)
(* ------------------------------------------------------------------ *)

type role = Follower | Leader | Recovering | Down

type replica = {
  id : int;
  mutable role : role;
  mutable term : int;
  log : int array; (* term of each entry; length rounds is an upper bound *)
  mutable log_len : int;
  mutable commit : int;
  mutable backup_term : int;
  mutable backup_commit : int; (* also the backup's log length *)
  mutable backup_frozen : bool;
  mutable frozen_by_fault : bool;
  mutable recover_left : int;
  mutable stale_fault : bool; (* recovering from a fault-stale backup *)
  mutable killed_mid : bool; (* a Kill fault restarted this recovery *)
  mutable pending_delay : int;
  mutable acked : bool; (* acknowledged this round's append *)
}

(* One run's state. Every run builds its own; the snapshots [make] keeps
   are never written once it returns, so runs on several domains can
   share a cluster. *)
type state = {
  cfg : config;
  churn : int option array;
  majority : int;
  reps : replica array;
  faults : fault array; (* sorted by round, stably *)
  drops : fault array; (* the [Drop_acks] faults between two replicas *)
  mutable next_fault : int; (* first fault not yet landed *)
  coverage : Bitset.t;
  mutable leader : int; (* -1 when none *)
  mutable leader_killed_by_fault : bool;
  ledger : int array; (* term of every client-acknowledged entry *)
  mutable ledger_len : int;
  mutable commits : int;
  mutable elections : int;
  mutable recoveries : int;
  mutable last_commit_round : int;
  mutable triggered : bool;
  leader_trace : int array;
}

exception Stop of violation

(* Stdlib's [min] and [max] compare polymorphically, through a C call. *)
let imin (a : int) b = if a <= b then a else b
let imax (a : int) b = if a >= b then a else b

(* Logs outlive the minor heap, and [Array.blit] into an array in the
   major heap runs the write barrier once per element. These hold ints
   only, so a plain loop needs none. *)
let copy_ints (src : int array) src_pos (dst : int array) dst_pos len =
  for i = 0 to len - 1 do
    dst.(dst_pos + i) <- src.(src_pos + i)
  done

let cover st r b = Bitset.set st.coverage ((r * blocks_per_replica) + b)

let violate st invariant site r t =
  cover st r b_violation;
  raise (Stop { invariant; v_round = t; v_replica = r; site })

(* Directional message loss: an active Drop_acks fault severs every
   message from [peer] to [replica] for [drop_window] rounds. [drops] is
   sorted by round, so the scan stops at the first fault still to come. *)
let rec dropped_from (drops : fault array) window from to_ t i =
  i < Array.length drops
  &&
  let f = drops.(i) in
  f.round <= t
  && ((f.peer = from && f.replica = to_ && t < f.round + window)
     || dropped_from drops window from to_ t (i + 1))

let dropped st ~from ~to_ t = dropped_from st.drops st.cfg.drop_window from to_ t 0

(* Partial-credit block: any activated fault that lands while some
   replica is inside its recovery window covers that replica's overlap
   block — the gradient toward "second fault inside the window". *)
let mark_overlap st =
  for i = 0 to Array.length st.reps - 1 do
    if st.reps.(i).role = Recovering then cover st i b_recovery_overlap
  done

(* 1. An injected fault scheduled for this round. *)
let inject st f t =
  match f.kind with
  | Kill -> (
      let r = st.reps.(f.replica) in
      match r.role with
      | Down -> ()
      | Recovering ->
          st.triggered <- true;
          mark_overlap st;
          cover st r.id b_kill_mid_recovery;
          if st.leader >= 0 && dropped st ~from:st.leader ~to_:r.id t then
            (* Planted deep bug 2: the catch-up stream is severed and the
               recovering process is killed on top — the recovery state
               machine aborts instead of restarting. Needs
               Drop_acks(leader -> r) + Kill(r) correlated inside one
               recovery window. *)
            violate st "recovery-crash" site_recovery_crash r.id t
          else begin
            r.role <- Down;
            r.killed_mid <- true
          end
      | Leader ->
          st.triggered <- true;
          mark_overlap st;
          r.role <- Down;
          st.leader <- -1;
          st.leader_killed_by_fault <- true
      | Follower ->
          st.triggered <- true;
          mark_overlap st;
          r.role <- Down)
  | Drop_acks ->
      (* Activation is implicit via [dropped]; effects (and the
         [triggered] flag) are recorded where a message is lost. *)
      if f.peer <> f.replica then mark_overlap st
  | Stale_backup ->
      let r = st.reps.(f.replica) in
      if not r.backup_frozen then begin
        r.backup_frozen <- true;
        r.frozen_by_fault <- true
      end
  | Delayed_rejoin ->
      let r = st.reps.(f.replica) in
      if r.role = Recovering then begin
        st.triggered <- true;
        mark_overlap st;
        r.recover_left <- r.recover_left + st.cfg.recovery_rounds;
        cover st r.id b_delayed_rejoin
      end
      else r.pending_delay <- r.pending_delay + st.cfg.recovery_rounds

(* 2. Scheduled churn: a live replica goes down for recovery. *)
let churn st t =
  match st.churn.(t) with
  | Some c -> (
      let r = st.reps.(c) in
      match r.role with
      | Leader ->
          r.role <- Down;
          st.leader <- -1
      | Follower -> r.role <- Down
      | Recovering | Down -> ())
  | None -> ()

(* 3. Recovery: reload the backup, sit out the window, catch up. *)
let recover st r t =
  match r.role with
  | Down ->
      r.role <- Recovering;
      r.recover_left <- st.cfg.recovery_rounds + r.pending_delay;
      if r.pending_delay > 0 then begin
        st.triggered <- true;
        cover st r.id b_delayed_rejoin
      end;
      r.pending_delay <- 0;
      r.log_len <- r.backup_commit;
      r.term <- r.backup_term;
      r.commit <- r.backup_commit;
      st.recoveries <- st.recoveries + 1;
      cover st r.id b_recovery_start;
      let stale = r.backup_commit + st.cfg.backup_period < st.ledger_len in
      r.stale_fault <- stale && (r.frozen_by_fault || r.killed_mid);
      if r.stale_fault then begin
        cover st r.id b_stale_backup_used;
        if r.frozen_by_fault then st.triggered <- true
      end;
      r.killed_mid <- false
  | Recovering ->
      if r.recover_left > 0 then r.recover_left <- r.recover_left - 1
      else if st.leader >= 0 && st.leader <> r.id then
        if dropped st ~from:st.leader ~to_:r.id t then begin
          st.triggered <- true;
          cover st r.id b_catchup_blocked
        end
        else begin
          let ldr = st.reps.(st.leader) in
          copy_ints ldr.log 0 r.log 0 ldr.log_len;
          r.log_len <- ldr.log_len;
          r.term <- ldr.term;
          r.commit <- ldr.commit;
          r.role <- Follower;
          r.stale_fault <- false;
          cover st r.id b_recovery_done
        end
  | Leader | Follower -> ()

(* [a] and [b] hold the same entries from [i] up to [len]. *)
let rec same_prefix (a : int array) (b : int array) i len =
  i >= len || (a.(i) = b.(i) && same_prefix a b (i + 1) len)

(* 4. Election, when the cluster has no leader and a quorum of settled
   followers can vote: the longest log wins, the lowest id on ties. *)
let elect st t =
  let reps = st.reps in
  let voters = ref 0 and winner = ref (-1) and top = ref 0 in
  for i = 0 to Array.length reps - 1 do
    let r = reps.(i) in
    top := imax !top r.term;
    if r.role = Follower then begin
      incr voters;
      if !winner < 0 || r.log_len > reps.(!winner).log_len then winner := i
    end
  done;
  if !voters >= st.majority then begin
    let winner = reps.(!winner) in
    for i = 0 to Array.length reps - 1 do
      if reps.(i).role = Follower then reps.(i).term <- !top + 1
    done;
    winner.role <- Leader;
    st.leader <- winner.id;
    st.elections <- st.elections + 1;
    cover st winner.id b_leader;
    (* Committed-entry durability: the new leader's log must contain
       every entry ever acknowledged to a client. *)
    if
      winner.log_len < st.ledger_len
      || not (same_prefix winner.log st.ledger 0 st.ledger_len)
    then violate st "committed-durability" site_durability winner.id t;
    for i = 0 to Array.length reps - 1 do
      if reps.(i).role = Recovering then begin
        cover st i b_election_during_recovery;
        (* Planted deep bug 1: a replica mid-recovery from a fault-stale
           backup re-enters the vote protocol when the leader it was
           restoring against is killed inside its window — it announces
           leadership with its stale term, and the cluster briefly has
           two leaders. Needs Stale_backup(r) (or a mid-recovery Kill) +
           Kill(leader) correlated inside one recovery window. *)
        if reps.(i).stale_fault && st.leader_killed_by_fault then
          violate st "leader-uniqueness" site_stale_revote i t
      end
    done;
    st.leader_killed_by_fault <- false
  end

(* 5. Replication: the leader appends one client command per round and
   commits once a majority acknowledges. *)
let replicate st t =
  let l = st.leader in
  let ldr = st.reps.(l) in
  ldr.log.(ldr.log_len) <- ldr.term;
  ldr.log_len <- ldr.log_len + 1;
  let acks = ref 1 in
  for i = 0 to Array.length st.reps - 1 do
    let f = st.reps.(i) in
    f.acked <- false;
    if i <> l && f.role = Follower then
      if dropped st ~from:l ~to_:i t then begin
        st.triggered <- true;
        cover st i b_acks_dropped
      end
      else begin
        (* AppendEntries consistency: overwrite the follower's
           uncommitted tail with the leader's (the committed prefix is
           immutable, so syncing from the older commit point is enough
           and O(tail)). *)
        let from_ = imin f.commit ldr.commit in
        copy_ints ldr.log from_ f.log from_ (ldr.log_len - from_);
        f.log_len <- ldr.log_len;
        f.term <- ldr.term;
        if dropped st ~from:i ~to_:l t then begin
          st.triggered <- true;
          cover st i b_acks_dropped
        end
        else begin
          incr acks;
          f.acked <- true;
          cover st i b_follower_ack
        end
      end
  done;
  if !acks >= st.majority then begin
    for i = ldr.commit to ldr.log_len - 1 do
      if i < st.ledger_len then begin
        (* Log-prefix agreement: a committed slot may never be
           re-committed with a different term. *)
        if st.ledger.(i) <> ldr.log.(i) then
          violate st "log-prefix-agreement" site_prefix l t
      end
      else begin
        st.ledger.(i) <- ldr.log.(i);
        st.ledger_len <- st.ledger_len + 1
      end
    done;
    st.commits <- st.commits + (ldr.log_len - ldr.commit);
    ldr.commit <- ldr.log_len;
    st.last_commit_round <- t;
    for i = 0 to Array.length st.reps - 1 do
      let f = st.reps.(i) in
      if f.acked then f.commit <- imin f.log_len ldr.commit
    done
  end;
  cover st l b_leader

(* 6. Backup snapshots: live replicas persist their committed prefix at
   the configured cadence, unless a fault froze the backup. *)
let back_up r =
  match r.role with
  | (Follower | Leader) when not r.backup_frozen ->
      r.backup_term <- r.term;
      r.backup_commit <- r.commit
  | Follower | Leader | Recovering | Down -> ()

let round st t =
  let cfg = st.cfg in
  while st.next_fault < Array.length st.faults && st.faults.(st.next_fault).round = t do
    let f = st.faults.(st.next_fault) in
    st.next_fault <- st.next_fault + 1;
    inject st f t
  done;
  churn st t;
  for i = 0 to Array.length st.reps - 1 do
    recover st st.reps.(i) t
  done;
  if st.leader < 0 then elect st t;
  if st.leader >= 0 then replicate st t;
  if t mod cfg.backup_period = cfg.backup_period - 1 then Array.iter back_up st.reps;
  (* 7. Liveness within k rounds. *)
  if t - st.last_commit_round > cfg.liveness_k then
    violate st "liveness" site_liveness (imax st.leader 0) t;
  st.leader_trace.(t) <- st.leader

(* Runs rounds [from] to the last, or up to the first violation. *)
let simulate ?(at_round = fun _ -> ()) st ~from =
  let violation =
    match
      for t = from to st.cfg.rounds - 1 do
        at_round t;
        round st t
      done
    with
    | () -> None
    | exception Stop v -> Some v
  in
  let rounds_run = match violation with Some v -> v.v_round + 1 | None -> st.cfg.rounds in
  {
    rounds_run;
    commits = st.commits;
    elections = st.elections;
    recoveries = st.recoveries;
    violation;
    coverage = st.coverage;
    triggered = st.triggered;
    leader_trace = st.leader_trace;
    elapsed_ms = float_of_int rounds_run *. st.cfg.round_ms;
  }

(* ------------------------------------------------------------------ *)
(* Baseline snapshots                                                  *)
(* ------------------------------------------------------------------ *)

(* Before its earliest fault a run follows the baseline round for round,
   so it can start from the baseline's state at any round up to that
   fault. [make] keeps that state every [cadence] rounds, at most
   [max_snapshots] times: memory grows linearly in the rounds. *)
let min_cadence = 16
let max_snapshots = 64
let cadence rounds = imax min_cadence ((rounds + max_snapshots - 1) / max_snapshots)

(* The replicas of one snapshot. A round reads a log only below its
   length, and a recovery cuts it to its backup, which never exceeds the
   length, so a snapshot keeps each log up to its length. In a
   fault-free run every log is a prefix of the longest one: the snapshot
   stores that one and the others share it. A log that is not a prefix
   gets its own copy. *)
let capture_reps reps =
  let longest =
    Array.fold_left (fun a r -> if r.log_len > a.log_len then r else a) reps.(0) reps
  in
  let shared = Array.sub longest.log 0 longest.log_len in
  Array.map
    (fun r ->
      let log =
        if same_prefix r.log shared 0 r.log_len then shared
        else Array.sub r.log 0 r.log_len
      in
      { r with log })
    reps

(* The ledger and leader trace of a snapshot are the baseline's own
   arrays: entries behind the snapshot's round never change. *)
let capture st =
  { st with reps = capture_reps st.reps; coverage = Bitset.copy st.coverage }

let prefix_copy src len capacity =
  let a = Array.make capacity 0 in
  copy_ints src 0 a 0 len;
  a

let resume snap ~at ~faults ~drops =
  let rounds = snap.cfg.rounds in
  let leader_trace = Array.make rounds (-1) in
  copy_ints snap.leader_trace 0 leader_trace 0 at;
  {
    snap with
    reps =
      Array.map (fun r -> { r with log = prefix_copy r.log r.log_len rounds }) snap.reps;
    faults;
    drops;
    next_fault = 0;
    coverage = Bitset.copy snap.coverage;
    ledger = prefix_copy snap.ledger snap.ledger_len rounds;
    leader_trace;
  }

(* ------------------------------------------------------------------ *)
(* Cluster construction                                                *)
(* ------------------------------------------------------------------ *)

type cluster = {
  config : config;
  churn : int option array;
  baseline_result : run_result;
  snapshots : state array; (* the baseline at rounds 0, cadence, ... *)
}

let make ?(rounds = 400) ?(seed = 42) ?(churn_period = 7) ?(recovery_rounds = 5)
    ?(backup_period = 8) ?(drop_window = 6) ?(liveness_k = 30) ?(round_ms = 0.05)
    ~n () =
  if n < 3 then invalid_arg "Replsim.make: need at least 3 replicas";
  if rounds < 1 then invalid_arg "Replsim.make: rounds < 1";
  if churn_period < 1 || backup_period < 1 || recovery_rounds < 1 || drop_window < 1
  then invalid_arg "Replsim.make: periods must be positive";
  if liveness_k < 1 then invalid_arg "Replsim.make: liveness_k < 1";
  if recovery_rounds >= 2 * churn_period then
    invalid_arg
      "Replsim.make: recovery_rounds >= 2 * churn_period starves the quorum \
       under baseline churn";
  let config =
    {
      n;
      rounds;
      seed;
      churn_period;
      recovery_rounds;
      backup_period;
      drop_window;
      liveness_k;
      round_ms;
    }
  in
  let churn = Array.make rounds None in
  let rng = Rng.create seed in
  for t = 0 to rounds - 1 do
    if t > 0 && t mod churn_period = 0 then churn.(t) <- Some (Rng.int rng n)
  done;
  let st =
    {
      cfg = config;
      churn;
      majority = (n / 2) + 1;
      reps =
        Array.init n (fun id ->
            {
              id;
              role = Follower;
              term = 0;
              log = Array.make rounds 0;
              log_len = 0;
              commit = 0;
              backup_term = 0;
              backup_commit = 0;
              backup_frozen = false;
              frozen_by_fault = false;
              recover_left = 0;
              stale_fault = false;
              killed_mid = false;
              pending_delay = 0;
              acked = false;
            });
      faults = [||];
      drops = [||];
      next_fault = 0;
      coverage = Bitset.create (n * blocks_per_replica);
      leader = -1;
      leader_killed_by_fault = false;
      ledger = Array.make rounds 0;
      ledger_len = 0;
      commits = 0;
      elections = 0;
      recoveries = 0;
      last_commit_round = 0;
      triggered = false;
      leader_trace = Array.make rounds (-1);
    }
  in
  let cadence = cadence rounds in
  let snapshots = ref [] in
  let baseline_result =
    simulate st ~from:0 ~at_round:(fun t ->
        if t mod cadence = 0 then snapshots := capture st :: !snapshots)
  in
  { config; churn; baseline_result; snapshots = Array.of_list (List.rev !snapshots) }

let config t = t.config
let baseline t = t.baseline_result

let churn_schedule t =
  let events = ref [] in
  Array.iteri
    (fun round c -> match c with Some r -> events := (round, r) :: !events | None -> ())
    t.churn;
  List.rev !events

let total_blocks t = t.config.n * blocks_per_replica

let run t ~faults =
  List.iter
    (fun f ->
      if f.round < 0 || f.round >= t.config.rounds then
        invalid_arg (Printf.sprintf "Replsim.run: round %d out of range" f.round);
      if f.replica < 0 || f.replica >= t.config.n then
        invalid_arg (Printf.sprintf "Replsim.run: replica %d out of range" f.replica);
      if f.peer < 0 || f.peer >= t.config.n then
        invalid_arg (Printf.sprintf "Replsim.run: peer %d out of range" f.peer))
    faults;
  let faults = List.stable_sort (fun a b -> compare a.round b.round) faults in
  (* A self-addressed drop matches no message. *)
  let drops = List.filter (fun f -> f.kind = Drop_acks && f.peer <> f.replica) faults in
  let first = match faults with f :: _ -> f.round | [] -> t.config.rounds in
  let cadence = cadence t.config.rounds in
  let i = imin (first / cadence) (Array.length t.snapshots - 1) in
  simulate ~from:(i * cadence)
    (resume t.snapshots.(i) ~at:(i * cadence) ~faults:(Array.of_list faults)
       ~drops:(Array.of_list drops))

let pp_summary ppf t =
  let b = t.baseline_result in
  Format.fprintf ppf
    "replsim: %d replicas, %d rounds (churn every %d) — baseline %d commits, %d \
     elections, %d recoveries"
    t.config.n t.config.rounds t.config.churn_period b.commits b.elections
    b.recoveries
