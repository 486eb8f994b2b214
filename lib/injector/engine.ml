module Target = Afex_simtarget.Target
module Sim_test = Afex_simtarget.Sim_test
module Callsite = Afex_simtarget.Callsite
module Behavior = Afex_simtarget.Behavior
module Bitset = Afex_stats.Bitset

type nondeterminism = { rng : Afex_stats.Rng.t; dodge_probability : float }

let hang_timeout_factor = 5.0

let cover coverage blocks =
  for k = 0 to Array.length blocks - 1 do
    Bitset.set coverage blocks.(k)
  done

(* Covers the calls at trace positions [i] to [last] a run of one call
   site at a time: every call of a run covers the same blocks. *)
let rec cover_calls target trace coverage i last =
  if i <= last then begin
    cover coverage (Target.callsite target trace.(i)).Callsite.blocks;
    cover_calls target trace coverage (Sim_test.run_end trace i) last
  end

(* Weaken a triggered reaction, modelling scheduling-dependent escape. *)
let dodge = function
  | Behavior.Crash _ -> Behavior.Test_fails
  | Behavior.Test_fails -> Behavior.Handled
  | Behavior.Hang -> Behavior.Test_fails
  | Behavior.Handled -> Behavior.Handled
  | Behavior.Crash_if_recovering -> Behavior.Crash_if_recovering

let reaction ?nondet (site : Callsite.t) ~errno =
  let r = Behavior.reaction_for site.Callsite.behavior ~errno in
  match nondet with
  | Some { rng; dodge_probability } when dodge_probability > 0.0 ->
      if Afex_stats.Rng.bernoulli rng dodge_probability then dodge r else r
  | Some _ | None -> r

let triggered fault coverage stack status ~crash_stack ~duration =
  {
    Outcome.fault;
    status;
    triggered = true;
    coverage;
    injection_stack = Some stack;
    crash_stack;
    duration_ms = duration;
  }

let run ?nondet target (fault : Fault.t) =
  if fault.Fault.test_id < 0 || fault.Fault.test_id >= Target.n_tests target then
    invalid_arg
      (Printf.sprintf "Engine.run: test id %d out of range" fault.Fault.test_id);
  let test = Target.test target fault.Fault.test_id in
  let trace = test.Sim_test.trace in
  let last = Array.length trace - 1 in
  let coverage = Bitset.create (Target.total_blocks target) in
  let nominal = test.Sim_test.duration_ms in
  let injection =
    if fault.Fault.call_number <= 0 then None
    else
      Sim_test.nth_call test
        ~site_func:(Target.site_func target)
        fault.Fault.func ~n:fault.Fault.call_number
  in
  match injection with
  | None ->
      cover_calls target trace coverage 0 last;
      {
        Outcome.fault;
        status = Outcome.Passed;
        triggered = false;
        coverage;
        injection_stack = None;
        crash_stack = None;
        duration_ms = nominal;
      }
  | Some (pos, site_id) ->
      let site = Target.callsite target site_id in
      (* Blocks reached up to and including the failing call. *)
      cover_calls target trace coverage 0 pos;
      let reaction = reaction ?nondet site ~errno:fault.Fault.errno in
      let progress = float_of_int (pos + 1) /. float_of_int (last + 1) in
      let stack = Callsite.injection_stack site in
      (match reaction with
      | Behavior.Crash_if_recovering
      (* With a single fault there is no prior recovery in flight, so the
         latent bug stays dormant and the site handles the error. *)
      | Behavior.Handled ->
          cover coverage site.Callsite.recovery_blocks;
          cover_calls target trace coverage (pos + 1) last;
          triggered fault coverage stack Outcome.Passed ~crash_stack:None
            ~duration:nominal
      | Behavior.Test_fails ->
          cover coverage site.Callsite.recovery_blocks;
          triggered fault coverage stack Outcome.Test_failed ~crash_stack:None
            ~duration:(nominal *. progress)
      | Behavior.Crash { in_recovery } ->
          let crash_stack =
            if in_recovery then begin
              cover coverage site.Callsite.recovery_blocks;
              Some (("recovery@" ^ site.Callsite.location) :: stack)
            end
            else Some stack
          in
          triggered fault coverage stack Outcome.Crashed ~crash_stack
            ~duration:(nominal *. progress)
      | Behavior.Hang ->
          triggered fault coverage stack Outcome.Hung ~crash_stack:None
            ~duration:(nominal *. hang_timeout_factor))

let baseline target test_id =
  run target (Fault.make ~test_id ~func:"malloc" ~call_number:0 ())

let suite_coverage target =
  let coverage = Bitset.create (Target.total_blocks target) in
  Array.iter
    (fun (test : Sim_test.t) ->
      let trace = test.Sim_test.trace in
      cover_calls target trace coverage 0 (Array.length trace - 1))
    (Target.tests target);
  coverage
