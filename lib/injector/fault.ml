module Libc = Afex_simtarget.Libc
module Value = Afex_faultspace.Value

type t = {
  test_id : int;
  func : string;
  call_number : int;
  errno : string;
  retval : int;
}

let default_error func =
  match Libc.find func with
  | Some info -> Libc.primary_error info
  | None -> { Libc.retval = -1; errno = "EIO" }

let make ~test_id ~func ~call_number ?errno ?retval () =
  let default = default_error func in
  {
    test_id;
    func;
    call_number;
    errno = Option.value errno ~default:default.Libc.errno;
    retval = Option.value retval ~default:default.Libc.retval;
  }

let equal a b = a = b
let compare = Stdlib.compare

let to_scenario t =
  [
    ("testId", Value.Int t.test_id);
    ("function", Value.Sym t.func);
    ("errno", Value.Sym t.errno);
    ("retval", Value.Int t.retval);
    ("callNumber", Value.Int t.call_number);
  ]

let of_scenario scenario =
  let int_value name = function
    | Value.Int v -> Ok v
    | v -> Error (Printf.sprintf "%s: expected integer, got %s" name (Value.to_string v))
  in
  let sym_value name = function
    | Value.Sym s -> Ok s
    | Value.Int v -> Ok (string_of_int v)
    | v -> Error (Printf.sprintf "%s: expected symbol, got %s" name (Value.to_string v))
  in
  let required decode name =
    match List.assoc_opt name scenario with
    | Some v -> decode name v
    | None -> Error (Printf.sprintf "missing attribute %s" name)
  in
  (* errno and retval fall back to the function's primary error when
     absent or ill-typed; most search spaces leave them out. *)
  let optional decode name ~default =
    match List.assoc_opt name scenario with
    | None -> default
    | Some v -> ( match decode name v with Ok x -> x | Error _ -> default)
  in
  match
    ( required int_value "testId",
      required sym_value "function",
      required int_value "callNumber" )
  with
  | Ok test_id, Ok func, Ok call_number ->
      let default = default_error func in
      let errno = optional sym_value "errno" ~default:default.Libc.errno in
      let retval = optional int_value "retval" ~default:default.Libc.retval in
      Ok { test_id; func; call_number; errno; retval }
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e

let to_string t =
  Printf.sprintf "test %d: %s call #%d fails with %s (ret %d)" t.test_id t.func
    t.call_number t.errno t.retval

let pp ppf t = Format.pp_print_string ppf (to_string t)
