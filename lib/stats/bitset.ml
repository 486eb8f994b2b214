type t = { capacity : int; words : Bytes.t }

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create: negative capacity";
  { capacity; words = Bytes.make ((capacity + 7) / 8) '\000' }

let capacity t = t.capacity

let copy t = { capacity = t.capacity; words = Bytes.copy t.words }

let check t i =
  if i < 0 || i >= t.capacity then
    invalid_arg (Printf.sprintf "Bitset: index %d out of range [0,%d)" i t.capacity)

let set t i =
  check t i;
  let byte = i lsr 3 and bit = i land 7 in
  Bytes.unsafe_set t.words byte
    (Char.chr (Char.code (Bytes.unsafe_get t.words byte) lor (1 lsl bit)))

let mem t i =
  check t i;
  let byte = i lsr 3 and bit = i land 7 in
  Char.code (Bytes.unsafe_get t.words byte) land (1 lsl bit) <> 0

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

let count t =
  let total = ref 0 in
  Bytes.iter (fun c -> total := !total + popcount_byte c) t.words;
  !total

let union_into ~dst src =
  if dst.capacity <> src.capacity then invalid_arg "Bitset.union_into: capacity mismatch";
  for i = 0 to Bytes.length dst.words - 1 do
    Bytes.unsafe_set dst.words i
      (Char.chr
         (Char.code (Bytes.unsafe_get dst.words i)
         lor Char.code (Bytes.unsafe_get src.words i)))
  done

let diff_count a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.diff_count: capacity mismatch";
  let total = ref 0 in
  for i = 0 to Bytes.length a.words - 1 do
    let x = Char.code (Bytes.unsafe_get a.words i)
    and y = Char.code (Bytes.unsafe_get b.words i) in
    total := !total + popcount_byte (Char.chr (x land lnot y land 0xff))
  done;
  !total

let iter f t =
  for i = 0 to t.capacity - 1 do
    if mem t i then f i
  done

let extend t capacity =
  if capacity < t.capacity then invalid_arg "Bitset.extend: capacity shrinks";
  let u = create capacity in
  Bytes.blit t.words 0 u.words 0 (Bytes.length t.words);
  u

let set_run t first last =
  if first < 0 || first > last || last >= t.capacity then
    invalid_arg
      (Printf.sprintf "Bitset: run [%d,%d] out of range [0,%d)" first last
         t.capacity);
  for i = first to last do
    let byte = i lsr 3 in
    Bytes.unsafe_set t.words byte
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get t.words byte) lor (1 lsl (i land 7))))
  done

(* The lowest set bit of a non-zero byte. *)
let lowest_bit =
  let table = Array.make 256 0 in
  for i = 2 to 255 do
    if i land 1 = 0 then table.(i) <- 1 + table.(i lsr 1)
  done;
  fun v -> Array.unsafe_get table v

(* Bits at or past [capacity] are never set, so the scans below step
   over whole bytes: coverage bitsets are mostly zero bytes, which cost
   one test, and a run's bytes are mostly full ones. *)
let rec next_set t i =
  if i >= t.capacity then t.capacity
  else
    let v = Char.code (Bytes.unsafe_get t.words (i lsr 3)) lsr (i land 7) in
    if v = 0 then next_set t ((i lor 7) + 1) else i + lowest_bit v

(* The clear bits past [capacity] end a run that reaches it. *)
let rec next_clear t i =
  if i >= t.capacity then t.capacity
  else
    let v =
      (lnot (Char.code (Bytes.unsafe_get t.words (i lsr 3))) land 0xff)
      lsr (i land 7)
    in
    if v = 0 then next_clear t ((i lor 7) + 1) else i + lowest_bit v

let rec fold_runs_from f acc t i =
  let first = next_set t i in
  if first >= t.capacity then acc
  else
    let stop = next_clear t first in
    fold_runs_from f (f acc first (stop - 1)) t stop

let fold_runs f acc t = fold_runs_from f acc t 0

let equal a b = a.capacity = b.capacity && Bytes.equal a.words b.words

(* The polymorphic hash reads the whole of a byte sequence. *)
let hash t = Hashtbl.hash t.words
