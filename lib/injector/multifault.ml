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
  let coverage = Bitset.create (Target.total_blocks target) in
  let counts = Hashtbl.create 8 in
  let pending = ref t.arms in
  let recovering = ref false in
  let last_triggered = ref None in
  let outcome_of status ~fault ~site ~progress ~crash_stack =
    let nominal = test.Sim_test.duration_ms in
    let duration =
      match status with
      | Outcome.Hung -> nominal *. Engine.hang_timeout_factor
      | Outcome.Passed -> nominal
      | Outcome.Test_failed | Outcome.Crashed -> nominal *. progress
    in
    {
      Outcome.fault;
      status;
      triggered = (match site with Some _ -> true | None -> !last_triggered <> None);
      coverage;
      injection_stack =
        (match site, !last_triggered with
        | Some s, _ -> Some (Callsite.injection_stack s)
        | None, Some (_, s) -> Some (Callsite.injection_stack s)
        | None, None -> None);
      crash_stack;
      duration_ms = duration;
    }
  in
  let n = Array.length trace in
  let result = ref None in
  let i = ref 0 in
  while !result = None && !i < n do
    let site = Target.callsite target trace.(!i) in
    Engine.cover coverage site.Callsite.blocks;
    let func = site.Callsite.func in
    let count = 1 + Option.value (Hashtbl.find_opt counts func) ~default:0 in
    Hashtbl.replace counts func count;
    (* Does an armed fault trigger on this call? *)
    (match
       List.find_opt (fun a -> String.equal a.func func && a.call_number = count) !pending
     with
    | None -> ()
    | Some arm ->
        pending := List.filter (fun a -> a != arm) !pending;
        last_triggered := Some (arm, site);
        let reaction = Engine.reaction ?nondet site ~errno:arm.errno in
        let progress = float_of_int (!i + 1) /. float_of_int (max 1 n) in
        let fault = fault_of_arm t.test_id arm in
        (match reaction with
        | Behavior.Handled ->
            Engine.cover coverage site.Callsite.recovery_blocks;
            recovering := true
        | Behavior.Crash_if_recovering ->
            Engine.cover coverage site.Callsite.recovery_blocks;
            if !recovering then begin
              let crash_stack =
                Some (("recovery@" ^ site.Callsite.location) :: Callsite.injection_stack site)
              in
              result :=
                Some (outcome_of Outcome.Crashed ~fault ~site:(Some site) ~progress ~crash_stack)
            end
            else recovering := true
        | Behavior.Test_fails ->
            Engine.cover coverage site.Callsite.recovery_blocks;
            result :=
              Some
                (outcome_of Outcome.Test_failed ~fault ~site:(Some site) ~progress
                   ~crash_stack:None)
        | Behavior.Crash { in_recovery } ->
            if in_recovery then Engine.cover coverage site.Callsite.recovery_blocks;
            let crash_stack =
              let base = Callsite.injection_stack site in
              if in_recovery then Some (("recovery@" ^ site.Callsite.location) :: base)
              else Some base
            in
            result :=
              Some (outcome_of Outcome.Crashed ~fault ~site:(Some site) ~progress ~crash_stack)
        | Behavior.Hang ->
            result :=
              Some (outcome_of Outcome.Hung ~fault ~site:(Some site) ~progress ~crash_stack:None)));
    incr i
  done;
  match !result with
  | Some outcome -> outcome
  | None ->
      (* Ran to completion: either nothing triggered, or everything that
         did was handled. *)
      let fault =
        match !last_triggered with
        | Some (arm, _) -> fault_of_arm t.test_id arm
        | None -> fault_of_arm t.test_id (List.hd t.arms)
      in
      outcome_of Outcome.Passed ~fault ~site:None ~progress:1.0 ~crash_stack:None

let pp ppf t =
  Format.fprintf ppf "test %d:" t.test_id;
  List.iter
    (fun a -> Format.fprintf ppf " [%s #%d %s]" a.func a.call_number a.errno)
    t.arms
