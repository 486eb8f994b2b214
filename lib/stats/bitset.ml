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

(* Or [mask] into byte [i]. *)
let or_byte b i mask =
  Bytes.unsafe_set b i (Char.unsafe_chr (Char.code (Bytes.unsafe_get b i) lor mask))

let set_run t first last =
  if first < 0 || first > last || last >= t.capacity then
    invalid_arg
      (Printf.sprintf "Bitset: run [%d,%d] out of range [0,%d)" first last
         t.capacity);
  let b = t.words and lo = first lsr 3 and hi = last lsr 3 in
  let head = (0xff lsl (first land 7)) land 0xff
  and tail = 0xff lsr (7 - (last land 7)) in
  if lo = hi then or_byte b lo (head land tail)
  else begin
    or_byte b lo head;
    Bytes.unsafe_fill b (lo + 1) (hi - lo - 1) '\xff';
    or_byte b hi tail
  end

(* {2 Runs, a word at a time}

   The run scans read the set 32 bits at a time: bit [i] of word [k] is
   block [32k + i]. Bits at or past [capacity] are never set, so the
   last word's missing bytes read as zero. *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let ones = 0xFFFF_FFFF
let word_count t = (Bytes.length t.words + 3) lsr 2

let word t k =
  let pos = k lsl 2 and len = Bytes.length t.words in
  if pos + 4 <= len then
    (if Sys.big_endian then Int32.to_int (swap32 (get32u t.words pos))
     else Int32.to_int (get32u t.words pos))
    land ones
  else begin
    let v = ref 0 in
    for j = len - 1 downto pos do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get t.words j)
    done;
    !v
  end

let popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  ((x * 0x0101_0101) land ones) lsr 24

(* The index of the one set bit of a power of two below 2^32, by a de
   Bruijn multiplication. *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let bit_index low =
  Char.code (String.unsafe_get debruijn (((low * 0x077C_B531) land ones) lsr 27))

(* A word's run boundaries are its transition mask: with [carry] the
   bit before the word (the previous word's top bit, 0 before the
   first), bit [i] of [x lxor ((x lsl 1) lor carry)] is set where bit
   [i] differs from the bit before it, so a run starts there when [x]'s
   bit [i] is set and ends just before it when clear. *)
let edges x carry = x lxor (((x lsl 1) lor carry) land ones)

let rec count_runs t n k carry acc =
  if k = n then acc
  else
    let x = word t k in
    let starts = x land edges x carry in
    count_runs t n (k + 1) (x lsr 31)
      (if starts = 0 then acc else acc + popcount32 starts)

let runs t = count_runs t (word_count t) 0 0 0

(* [first] is the start of the run still open, if [carry] is set. A
   word without an edge (all zero outside a run, all ones inside one)
   is stepped over whole. *)
let rec fold_words f c acc t n k carry first =
  if k = n then if carry = 1 then f c acc first ((n lsl 5) - 1) else acc
  else
    let x = word t k in
    if x = carry * ones then fold_words f c acc t n (k + 1) carry first
    else fold_edges f c acc t n k x (edges x carry) first

and fold_edges f c acc t n k x e first =
  if e = 0 then fold_words f c acc t n (k + 1) (x lsr 31) first
  else
    let low = e land -e in
    let i = (k lsl 5) + bit_index low in
    if x land low <> 0 then fold_edges f c acc t n k x (e lxor low) i
    else fold_edges f c (f c acc first (i - 1)) t n k x (e lxor low) first

let fold_runs f c acc t = fold_words f c acc t (word_count t) 0 0 0

let equal a b = a.capacity = b.capacity && Bytes.equal a.words b.words

(* The polymorphic hash reads the whole of a byte sequence. *)
let hash t = Hashtbl.hash t.words
