type t = {
  ids : (string, int) Hashtbl.t;
  mutable frames : string array;  (* id -> frame text *)
  mutable count : int;
}

let create ?(size = 256) () =
  { ids = Hashtbl.create size; frames = Array.make (max 1 size) ""; count = 0 }

let size t = t.count

let grow t =
  let frames = Array.make (2 * Array.length t.frames) "" in
  Array.blit t.frames 0 frames 0 t.count;
  t.frames <- frames

let intern_frame t frame =
  match Hashtbl.find_opt t.ids frame with
  | Some id -> id
  | None ->
      let id = t.count in
      if id = Array.length t.frames then grow t;
      t.frames.(id) <- frame;
      t.count <- id + 1;
      Hashtbl.add t.ids frame id;
      id

let find t frame = Hashtbl.find t.ids frame

let intern t trace =
  let arr = Array.make (List.length trace) 0 in
  List.iteri (fun i frame -> arr.(i) <- intern_frame t frame) trace;
  arr

let frame t id =
  if id < 0 || id >= t.count then invalid_arg "Trace_intern.frame: unknown id";
  t.frames.(id)

let dump t = Array.init t.count (fun i -> t.frames.(i))

let of_frames frames =
  let t = create ~size:(max 1 (Array.length frames)) () in
  let dup = ref None in
  Array.iter
    (fun f ->
      if Hashtbl.mem t.ids f then (if !dup = None then dup := Some f)
      else ignore (intern_frame t f))
    frames;
  match !dup with
  | Some f ->
      Error (Printf.sprintf "Trace_intern.of_frames: duplicate frame %S" f)
  | None -> Ok t

let extern t tokens = List.map (frame t) (Array.to_list tokens)
