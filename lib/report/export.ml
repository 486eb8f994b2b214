module Session = Afex.Session
module Test_case = Afex.Test_case
module Fault = Afex_injector.Fault
module Outcome = Afex_injector.Outcome

let csv_escape field =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') field
  in
  if not needs_quoting then field
  else begin
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let records_to_csv (r : Session.result) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "iteration,point,testId,function,callNumber,errno,retval,status,triggered,impact,fitness,new_blocks,duration_ms\n";
  List.iteri
    (fun i (c : Test_case.t) ->
      let f = c.Test_case.fault in
      Buffer.add_string buf
        (String.concat ","
           [
             string_of_int (i + 1);
             (* semicolon-joined so the field needs no quoting *)
             String.concat ";"
               (List.map string_of_int
                  (Afex_faultspace.Point.to_list c.Test_case.point));
             string_of_int f.Fault.test_id;
             csv_escape f.Fault.func;
             string_of_int f.Fault.call_number;
             csv_escape f.Fault.errno;
             string_of_int f.Fault.retval;
             Outcome.status_to_string c.Test_case.status;
             string_of_bool c.Test_case.triggered;
             Printf.sprintf "%.3f" c.Test_case.impact;
             Printf.sprintf "%.3f" c.Test_case.fitness;
             string_of_int c.Test_case.new_blocks;
             Printf.sprintf "%.2f" c.Test_case.duration_ms;
           ]);
      Buffer.add_char buf '\n')
    r.Session.executed;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let summary_to_json ~target (r : Session.result) =
  let field name value = Printf.sprintf "  %S: %s" name value in
  let str s = Printf.sprintf "\"%s\"" (json_escape s) in
  let float_array a =
    "[" ^ String.concat ", " (List.map (Printf.sprintf "%.4f") (Array.to_list a)) ^ "]"
  in
  let int_array a =
    "[" ^ String.concat ", " (List.map string_of_int (Array.to_list a)) ^ "]"
  in
  String.concat "\n"
    [
      "{";
      String.concat ",\n"
        [
          field "target" (str target);
          field "strategy" (str r.Session.strategy);
          field "iterations" (string_of_int r.Session.iterations);
          field "failed" (string_of_int r.Session.failed);
          field "crashed" (string_of_int r.Session.crashed);
          field "hung" (string_of_int r.Session.hung);
          field "triggered" (string_of_int r.Session.triggered);
          field "covered_blocks" (string_of_int r.Session.covered_blocks);
          field "total_blocks" (string_of_int r.Session.total_blocks);
          field "coverage_percent" (Printf.sprintf "%.4f" r.Session.coverage_percent);
          field "distinct_failure_traces" (string_of_int r.Session.distinct_failure_traces);
          field "distinct_crash_traces" (string_of_int r.Session.distinct_crash_traces);
          field "failure_clusters" (string_of_int r.Session.failure_clusters);
          field "crash_clusters" (string_of_int r.Session.crash_clusters);
          field "simulated_ms" (Printf.sprintf "%.2f" r.Session.simulated_ms);
          field "sensitivity" (float_array r.Session.sensitivity);
          field "failure_curve" (int_array (Session.failure_curve r));
          field "stopped_early" (string_of_bool r.Session.stopped_early);
        ];
      "}";
      "";
    ]

let provenance_to_json ~target ~seed ~resumed ~snapshots ~wal_appends
    ~replayed_records () =
  let field name value = Printf.sprintf "  %S: %s" name value in
  String.concat "\n"
    [
      "{";
      String.concat ",\n"
        [
          field "schema" "2";
          field "target" (Printf.sprintf "\"%s\"" (json_escape target));
          field "seed" (string_of_int seed);
          field "resumed" (string_of_bool resumed);
          field "snapshots_written" (string_of_int snapshots);
          field "wal_appends" (string_of_int wal_appends);
          field "replayed_records" (string_of_int replayed_records);
        ];
      "}";
      "";
    ]
