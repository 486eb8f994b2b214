module Rng = Afex_stats.Rng

type error =
  | Closed
  | Timeout
  | Frame_too_large of int
  | Corrupt of string
  | Io of string

let string_of_error = function
  | Closed -> "connection closed"
  | Timeout -> "receive timeout"
  | Frame_too_large n -> Printf.sprintf "frame of %d bytes exceeds the limit" n
  | Corrupt m -> Printf.sprintf "corrupt stream: %s" m
  | Io m -> Printf.sprintf "I/O error: %s" m

let max_frame = 4 * 1024 * 1024
let magic0 = 'A'
let magic1 = 'F'
let header_bytes = 10 (* 2 magic + 4 length + 4 checksum *)

let fnv1a32_bytes b pos len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let fnv1a32 s = fnv1a32_bytes (Bytes.unsafe_of_string s) 0 (String.length s)
let checksum = fnv1a32

let checksum_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Transport.checksum_bytes: range outside the bytes";
  fnv1a32_bytes b pos len

module Frame = struct
  let add_u32 b v =
    Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char b (Char.chr (v land 0xff))

  let u32 s off =
    (Char.code s.[off] lsl 24)
    lor (Char.code s.[off + 1] lsl 16)
    lor (Char.code s.[off + 2] lsl 8)
    lor Char.code s.[off + 3]

  let encode payload =
    let n = String.length payload in
    if n > max_frame then invalid_arg "Transport.Frame.encode: payload too large";
    let b = Buffer.create (header_bytes + n) in
    Buffer.add_char b magic0;
    Buffer.add_char b magic1;
    add_u32 b n;
    add_u32 b (fnv1a32 payload);
    Buffer.add_string b payload;
    Buffer.contents b

  type decoder = { mutable buf : string }

  let create () = { buf = "" }
  let feed d s = if s <> "" then d.buf <- d.buf ^ s
  let pending d = String.length d.buf

  let next d =
    let s = d.buf in
    let len = String.length s in
    if len = 0 then Ok None
    else if s.[0] <> magic0 || (len > 1 && s.[1] <> magic1) then
      Error (Corrupt "bad frame magic")
    else if len < header_bytes then Ok None
    else begin
      let n = u32 s 2 in
      if n > max_frame then Error (Frame_too_large n)
      else if len < header_bytes + n then Ok None
      else begin
        let payload = String.sub s header_bytes n in
        let declared = u32 s 6 in
        d.buf <- String.sub s (header_bytes + n) (len - header_bytes - n);
        if fnv1a32 payload <> declared then Error (Corrupt "checksum mismatch")
        else Ok (Some payload)
      end
    end
end

type counters = {
  mutable frames_out : int;
  mutable frames_in : int;
  mutable bytes_out : int;
  mutable bytes_in : int;
}

type t = {
  send : string -> (unit, error) result;
  recv : unit -> (string, error) result;
  try_recv : timeout_ms:int -> (string option, error) result;
  wait_fd : unit -> Unix.file_descr option;
  close : unit -> unit;
  peer : string;
  counters : counters;
}

(* Writing to a peer that already closed raises SIGPIPE, which would kill
   the process instead of returning EPIPE. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let write_all fd s =
  let b = Bytes.of_string s in
  let total = Bytes.length b in
  let rec go off =
    if off >= total then Ok ()
    else
      match Unix.write fd b off (total - off) with
      | 0 -> Error Closed
      | n -> go (off + n)
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
          Error Closed
      | exception Unix.Unix_error (EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  in
  go 0

let of_fd ?(recv_timeout_ms = 5000) ?(mangle = fun frame -> [ frame ]) ~peer fd =
  Lazy.force ignore_sigpipe;
  let decoder = Frame.create () in
  (* Counters are logical — the frame as handed over / decoded, before
     any chaos mangling — so wire cost measurements stay
     deterministic. One sent frame ~ one [write] syscall. *)
  let counters = { frames_out = 0; frames_in = 0; bytes_out = 0; bytes_in = 0 } in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  let send payload =
    if !closed then Error Closed
    else if String.length payload > max_frame then
      Error (Frame_too_large (String.length payload))
    else begin
      let r =
        List.fold_left
          (fun acc chunk ->
            match acc with Error _ -> acc | Ok () -> write_all fd chunk)
          (Ok ())
          (mangle (Frame.encode payload))
      in
      (match r with
      | Ok () ->
          counters.frames_out <- counters.frames_out + 1;
          counters.bytes_out <-
            counters.bytes_out + header_bytes + String.length payload
      | Error _ -> ());
      r
    end
  in
  let buf = Bytes.create 65536 in
  (* [Ok None] = no complete frame within [timeout_ms]; with 0 this is a
     pure poll, which is what a pipelining event loop needs. *)
  let rec try_recv ~timeout_ms =
    if !closed then Error Closed
    else
      match Frame.next decoder with
      | Error e -> Error e
      | Ok (Some payload) ->
          counters.frames_in <- counters.frames_in + 1;
          counters.bytes_in <-
            counters.bytes_in + header_bytes + String.length payload;
          Ok (Some payload)
      | Ok None -> (
          let readable =
            let deadline = float_of_int timeout_ms /. 1000.0 in
            let rec select () =
              match Unix.select [ fd ] [] [] deadline with
              | [], _, _ -> false
              | _ -> true
              | exception Unix.Unix_error (EINTR, _, _) -> select ()
            in
            select ()
          in
          if not readable then Ok None
          else
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 ->
                if Frame.pending decoder > 0 then
                  Error (Corrupt "end of stream inside a frame")
                else Error Closed
            | n ->
                Frame.feed decoder (Bytes.sub_string buf 0 n);
                try_recv ~timeout_ms
            | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
                Error Closed
            | exception Unix.Unix_error (EINTR, _, _) -> try_recv ~timeout_ms
            | exception Unix.Unix_error (e, _, _) ->
                Error (Io (Unix.error_message e)))
  in
  let recv () =
    match try_recv ~timeout_ms:recv_timeout_ms with
    | Ok (Some payload) -> Ok payload
    | Ok None -> Error Timeout
    | Error e -> Error e
  in
  let wait_fd () = if !closed then None else Some fd in
  { send; recv; try_recv; wait_fd; close; peer; counters }

let pair ?recv_timeout_ms ?mangle_a ?mangle_b () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  ( of_fd ?recv_timeout_ms ?mangle:mangle_a ~peer:"loopback" a,
    of_fd ?recv_timeout_ms ?mangle:mangle_b ~peer:"loopback" b )

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> Ok addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          Error (Printf.sprintf "host %S has no address" host)
      | { Unix.h_addr_list; _ } -> Ok h_addr_list.(0)
      | exception Not_found -> Error (Printf.sprintf "unknown host %S" host))

(* The protocol coalesces records into frames itself, and the client
   sends a frame while the one before it is still unacknowledged (its
   window goes out in two halves), which is when Nagle's algorithm
   would hold the second back for a delayed ACK. *)
let no_delay fd =
  try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ()

let connect_tcp ?recv_timeout_ms ~host ~port () =
  match resolve host with
  | Error m -> Error (Io m)
  | Ok addr -> (
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      match Unix.connect fd (ADDR_INET (addr, port)) with
      | () ->
          no_delay fd;
          Ok
            (of_fd ?recv_timeout_ms
               ~peer:(Printf.sprintf "%s:%d" host port)
               fd)
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Io (Unix.error_message e)))

let listen_tcp ?(host = "127.0.0.1") ~port () =
  match resolve host with
  | Error m -> Error (Io m)
  | Ok addr -> (
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      match
        Unix.setsockopt fd SO_REUSEADDR true;
        Unix.bind fd (ADDR_INET (addr, port));
        Unix.listen fd 16
      with
      | () ->
          let actual =
            match Unix.getsockname fd with
            | ADDR_INET (_, p) -> p
            | ADDR_UNIX _ -> port
          in
          Ok (fd, actual)
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Io (Unix.error_message e)))

let accept ?recv_timeout_ms ?mangle listen_fd =
  match Unix.accept listen_fd with
  | fd, addr ->
      no_delay fd;
      let peer =
        match addr with
        | Unix.ADDR_INET (a, p) ->
            Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
        | Unix.ADDR_UNIX p -> p
      in
      Ok (of_fd ?recv_timeout_ms ?mangle ~peer fd)
  | exception Unix.Unix_error (EINTR, _, _) -> Error (Io "interrupted")
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

type chaos = {
  drop : float;
  duplicate : float;
  truncate : float;
  bitflip : float;
  garbage : float;
}

let no_chaos =
  { drop = 0.0; duplicate = 0.0; truncate = 0.0; bitflip = 0.0; garbage = 0.0 }

let chaos_mangler ~rng c frame =
  if Rng.bernoulli rng c.drop then []
  else begin
    let frame =
      if Rng.bernoulli rng c.bitflip && String.length frame > 0 then begin
        let b = Bytes.of_string frame in
        let i = Rng.int rng (Bytes.length b) in
        let bit = Rng.int rng 8 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
        Bytes.to_string b
      end
      else frame
    in
    let frame =
      if Rng.bernoulli rng c.truncate && String.length frame > 1 then
        String.sub frame 0 (1 + Rng.int rng (String.length frame - 1))
      else frame
    in
    let chunks =
      if Rng.bernoulli rng c.garbage then
        [ String.init (1 + Rng.int rng 12) (fun _ -> Char.chr (Rng.int rng 256)); frame ]
      else [ frame ]
    in
    if Rng.bernoulli rng c.duplicate then chunks @ chunks else chunks
  end
