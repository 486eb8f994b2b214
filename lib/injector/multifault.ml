module Target = Afex_simtarget.Target
module Sim_test = Afex_simtarget.Sim_test
module Callsite = Afex_simtarget.Callsite
module Behavior = Afex_simtarget.Behavior
module Libc = Afex_simtarget.Libc
module Bitset = Afex_stats.Bitset
module Value = Afex_faultspace.Value

type arm = { func : string; call_number : int; errno : string; retval : int }
type t = { test_id : int; arms : arm list }

let default_error func =
  match Libc.find func with
  | Some info -> Libc.primary_error info
  | None -> { Libc.retval = -1; errno = "EIO" }

let arm_of (func, call_number) =
  let e = default_error func in
  { func; call_number; errno = e.Libc.errno; retval = e.Libc.retval }

let make ~test_id ~arms = { test_id; arms = List.map arm_of arms }

let fault_of_arm test_id a =
  Fault.make ~test_id ~func:a.func ~call_number:a.call_number ~errno:a.errno
    ~retval:a.retval ()

let arm_of_fault (f : Fault.t) =
  {
    func = f.Fault.func;
    call_number = f.Fault.call_number;
    errno = f.Fault.errno;
    retval = f.Fault.retval;
  }

let to_faults t = List.map (fault_of_arm t.test_id) t.arms

let of_faults = function
  | [] -> Error "empty fault list"
  | first :: _ as faults ->
      let test_id = first.Fault.test_id in
      if List.for_all (fun f -> f.Fault.test_id = test_id) faults then
        Ok { test_id; arms = List.map arm_of_fault faults }
      else Error "multi-fault scenario spans several tests"

let to_scenario t =
  ("testId", Value.Int t.test_id)
  :: List.concat_map
       (fun a ->
         [
           ("function", Value.Sym a.func);
           ("errno", Value.Sym a.errno);
           ("retval", Value.Int a.retval);
           ("callNumber", Value.Int a.call_number);
         ])
       t.arms

let of_scenario scenario =
  (* One testId binding, then groups of attributes; a group starts at each
     "function" binding. Suffixed attribute names (function2, callNumber2,
     ... from compound search spaces) are accepted as well. *)
  let strip_suffix name prefix =
    let np = String.length prefix in
    String.length name >= np
    && String.sub name 0 np = prefix
    && String.for_all (fun c -> c >= '0' && c <= '9')
         (String.sub name np (String.length name - np))
  in
  let test_id = ref None and groups = ref [] and current = ref None in
  let flush () =
    match !current with
    | Some arm -> groups := arm :: !groups
    | None -> ()
  in
  let result =
    List.fold_left
      (fun err (name, v) ->
        match err with
        | Some _ -> err
        | None -> (
            match v with
            | Value.Int id when String.equal name "testId" ->
                test_id := Some id;
                None
            | Value.Sym f when strip_suffix name "function" ->
                flush ();
                current := Some (arm_of (f, 1));
                None
            | Value.Int k when strip_suffix name "callNumber" -> (
                match !current with
                | Some arm ->
                    current := Some { arm with call_number = k };
                    None
                | None -> Some (Printf.sprintf "%s before any function" name))
            | Value.Sym e when strip_suffix name "errno" -> (
                match !current with
                | Some arm ->
                    current := Some { arm with errno = e };
                    None
                | None -> Some "errno before any function")
            | Value.Int r when strip_suffix name "retval" -> (
                match !current with
                | Some arm ->
                    current := Some { arm with retval = r };
                    None
                | None -> Some "retval before any function")
            | _ -> Some (Printf.sprintf "unexpected attribute %s" name)))
      None scenario
  in
  flush ();
  match result, !test_id, List.rev !groups with
  | Some e, _, _ -> Error e
  | None, None, _ -> Error "missing testId"
  | None, Some _, [] -> Error "no fault arms"
  | None, Some test_id, arms -> Ok { test_id; arms }

let run ?nondet target t =
  if t.arms = [] then invalid_arg "Multifault.run: no arms";
  if t.test_id < 0 || t.test_id >= Target.n_tests target then
    invalid_arg (Printf.sprintf "Multifault.run: test id %d out of range" t.test_id);
  let test = Target.test target t.test_id in
  let trace = test.Sim_test.trace in
  let n = Array.length trace in
  let coverage = Bitset.create (Target.total_blocks target) in
  let nominal = test.Sim_test.duration_ms in
  let site_func = Target.site_func target in
  (* Each arm triggers at its [call_number]-th call, in trace order. Two
     arms that name the same call tie; the stable sort keeps list order,
     so only the first triggers, as a call triggers one arm at most. *)
  let triggers =
    List.stable_sort
      (fun (p, _, _) (q, _, _) -> Int.compare p q)
      (List.filter_map
         (fun a ->
           match Sim_test.nth_call test ~site_func a.func ~n:a.call_number with
           | Some (pos, site_id) -> Some (pos, site_id, a)
           | None -> None)
         t.arms)
  in
  let outcome status ~arm ~site ~triggered ~duration ~crash_stack =
    {
      Outcome.fault = fault_of_arm t.test_id arm;
      status;
      triggered;
      coverage;
      injection_stack = Option.map Callsite.injection_stack site;
      crash_stack;
      duration_ms = duration;
    }
  in
  (* Covers the trace a run of one call site at a time between triggers;
     [last] is the most recently triggered arm and its site. *)
  let rec walk from recovering last = function
    | [] -> (
        Engine.cover_calls target trace coverage from (n - 1);
        (* Ran to completion: either nothing triggered, or everything
           that did was handled. *)
        match last with
        | Some (arm, site) ->
            outcome Outcome.Passed ~arm ~site:(Some site) ~triggered:true
              ~duration:nominal ~crash_stack:None
        | None ->
            outcome Outcome.Passed ~arm:(List.hd t.arms) ~site:None ~triggered:false
              ~duration:nominal ~crash_stack:None)
    | (pos, _, _) :: rest when pos < from -> walk from recovering last rest
    | (pos, site_id, arm) :: rest -> (
        Engine.cover_calls target trace coverage from pos;
        let site = Target.callsite target site_id in
        let progress = float_of_int (pos + 1) /. float_of_int (max 1 n) in
        let stop status ~duration ~crash_stack =
          outcome status ~arm ~site:(Some site) ~triggered:true ~duration ~crash_stack
        in
        let recovery_stack () =
          Some (("recovery@" ^ site.Callsite.location) :: Callsite.injection_stack site)
        in
        match Engine.reaction ?nondet site ~errno:arm.errno with
        | Behavior.Handled ->
            Engine.cover coverage site.Callsite.recovery_blocks;
            walk (pos + 1) true (Some (arm, site)) rest
        | Behavior.Crash_if_recovering ->
            Engine.cover coverage site.Callsite.recovery_blocks;
            if recovering then
              stop Outcome.Crashed ~duration:(nominal *. progress)
                ~crash_stack:(recovery_stack ())
            else walk (pos + 1) true (Some (arm, site)) rest
        | Behavior.Test_fails ->
            Engine.cover coverage site.Callsite.recovery_blocks;
            stop Outcome.Test_failed ~duration:(nominal *. progress) ~crash_stack:None
        | Behavior.Crash { in_recovery = true } ->
            Engine.cover coverage site.Callsite.recovery_blocks;
            stop Outcome.Crashed ~duration:(nominal *. progress)
              ~crash_stack:(recovery_stack ())
        | Behavior.Crash { in_recovery = false } ->
            stop Outcome.Crashed ~duration:(nominal *. progress)
              ~crash_stack:(Some (Callsite.injection_stack site))
        | Behavior.Hang ->
            stop Outcome.Hung ~duration:(nominal *. Engine.hang_timeout_factor)
              ~crash_stack:None)
  in
  walk 0 false None triggers

let pp ppf t =
  Format.fprintf ppf "test %d:" t.test_id;
  List.iter
    (fun a -> Format.fprintf ppf " [%s #%d %s]" a.func a.call_number a.errno)
    t.arms
