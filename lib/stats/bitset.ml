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

(* Bits at or past [capacity] are never set, so whole bytes can be
   scanned: coverage bitsets are mostly zero bytes, which cost one test. *)
let to_list t =
  let acc = ref [] in
  for byte = Bytes.length t.words - 1 downto 0 do
    let v = Char.code (Bytes.unsafe_get t.words byte) in
    if v <> 0 then
      for bit = 7 downto 0 do
        if v land (1 lsl bit) <> 0 then acc := ((byte lsl 3) lor bit) :: !acc
      done
  done;
  !acc

let equal a b = a.capacity = b.capacity && Bytes.equal a.words b.words
