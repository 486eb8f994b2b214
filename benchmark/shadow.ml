(* Shadow replays: after the traced rep, the recorded streams are fed
   through fresh instances of layers the session hooks cannot separate
   from [Explorer.report] or from the wire, each call timed on its own.
   They run outside every measured interval, so they cost the campaign
   nothing. *)

module Test_case = Afex.Test_case
module Outcome = Afex_injector.Outcome
module Scenario = Afex_faultspace.Scenario
module Message = Afex_cluster.Message
module V2 = Message.V2

type acc = { mutable ns : int; mutable calls : int }

let acc () = { ns = 0; calls = 0 }
let now () = Int64.to_int (Monotonic_clock.now ())

let timed a f =
  let t0 = now () in
  let r = f () in
  a.ns <- a.ns + (now () - t0);
  a.calls <- a.calls + 1;
  r

let mean_us a =
  if a.calls = 0 then 0.0
  else float_of_int a.ns /. 1000.0 /. float_of_int a.calls

(* The explorer's redundancy bookkeeping, as [Explorer.report] drives it:
   the failure index observes the injection stack of every triggered
   failing test, and, when the session runs with feedback, feedback
   weighs every test. Returns the distinct failure traces. *)
let quality ~index ~feedback (cases : Test_case.t list) =
  let intern = Afex_quality.Trace_intern.create () in
  let idx = Afex_quality.Index.create ~intern () in
  let fb = Afex_quality.Feedback.create ~intern () in
  List.iter
    (fun (c : Test_case.t) ->
      if Test_case.failed c && c.Test_case.triggered then
        timed index (fun () ->
            Afex_quality.Index.observe idx
              (Option.value c.Test_case.injection_stack ~default:[]));
      Option.iter
        (fun acc ->
          ignore
            (timed acc (fun () ->
                 Afex_quality.Feedback.weigh_fitness fb
                   ~trace:c.Test_case.injection_stack c.Test_case.impact)))
        feedback)
    cases;
  Afex_quality.Index.distinct idx

(* Rarity scoring and histogram updates over executed coverage, in
   execution order, on a histogram over the coverage bitsets' blocks. *)
let rarity ~bonus ~observe (outcomes : Outcome.t list) =
  match outcomes with
  | [] -> ()
  | first :: _ ->
      let blocks = Afex_stats.Bitset.capacity first.Outcome.coverage in
      let h = Afex.Rarity.create ~blocks in
      List.iter
        (fun (o : Outcome.t) ->
          ignore
            (timed bonus (fun () -> Afex.Rarity.bonus h o.Outcome.coverage));
          timed observe (fun () -> Afex.Rarity.observe h o.Outcome.coverage))
        outcomes

type wire = {
  encode_request : acc;
  decode_requests : acc;
  encode_reply : acc;
  decode_replies : acc;
}

let wire () =
  {
    encode_request = acc ();
    decode_requests = acc ();
    encode_reply = acc ();
    decode_replies = acc ();
  }

(* One connection's worth of wire protocol v2 over the executed
   scenarios and their outcomes, coalesced [per_frame] records to a
   frame as the pipelined client does when its window is [per_frame].
   Each accumulator counts tests, not frames. [false] if any frame fails
   to decode back to as many records as went in. *)
let message ~per_frame w (pairs : (Scenario.t * Outcome.t) list) =
  let cenc = V2.client_enc () and sdec = V2.server_dec () in
  let senc = V2.server_enc () and cdec = V2.client_dec () in
  let ok = ref true in
  let frame seq0 group =
    let n = List.length group in
    let add a t0 =
      a.ns <- a.ns + (now () - t0);
      a.calls <- a.calls + n
    in
    let decoded = function
      | Ok l when List.length l = n -> ()
      | Ok _ | Error _ -> ok := false
    in
    let t0 = now () in
    let b = Buffer.create 4096 in
    List.iteri
      (fun i (s, _) -> V2.encode_request cenc b ~seq:(seq0 + i) s)
      group;
    let requests = Buffer.contents b in
    add w.encode_request t0;
    let t0 = now () in
    let r = V2.decode_requests sdec requests in
    add w.decode_requests t0;
    decoded r;
    let t0 = now () in
    let b = Buffer.create 4096 in
    List.iteri
      (fun i (_, o) ->
        V2.encode_reply senc b
          (Message.Scenario_result
             (Message.report_of_outcome ~seq:(seq0 + i) o)))
      group;
    let replies = Buffer.contents b in
    add w.encode_reply t0;
    let t0 = now () in
    let r = V2.decode_replies cdec replies in
    add w.decode_replies t0;
    decoded r
  in
  let rec go seq group k = function
    | [] -> if group <> [] then frame seq (List.rev group)
    | p :: rest ->
        if k = per_frame then begin
          frame seq (List.rev group);
          go (seq + k) [ p ] 1 rest
        end
        else go seq (p :: group) (k + 1) rest
  in
  go 0 [] 0 pairs;
  !ok
