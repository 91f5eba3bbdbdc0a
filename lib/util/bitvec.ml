(* Packed bit vectors, 62 bits per native word so that all word-level
   operations stay within OCaml's tagged-integer range on 64-bit
   platforms (and the code remains correct, if slower, on 32-bit). *)

let bits_per_word = 62

type t = { len : int; words : int array }

let words_for len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitvec.create";
  { len; words = Array.make (words_for len) 0 }

let length v = v.len

let check_index v i =
  if i < 0 || i >= v.len then invalid_arg "Bitvec: index out of bounds"

let get v i =
  check_index v i;
  v.words.(i / bits_per_word) lsr (i mod bits_per_word) land 1 = 1

let set v i b =
  check_index v i;
  let w = i / bits_per_word and o = i mod bits_per_word in
  if b then v.words.(w) <- v.words.(w) lor (1 lsl o)
  else v.words.(w) <- v.words.(w) land lnot (1 lsl o)

let copy v = { len = v.len; words = Array.copy v.words }

let equal a b = a.len = b.len && a.words = b.words

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Stdlib.compare a.words b.words

let hash v = Hashtbl.hash (v.len, v.words)

(* Branch-free SWAR popcount, valid for any non-negative OCaml int
   (bits 0..61; our words use at most 62 bits).  The usual 64-bit
   subtract trick needs a mask with bit 63 set, so the first step uses
   the equivalent add form with the even-bit mask instead.  The
   exact-CC inner loop calls this on every split mask, where the
   clear-lowest-bit loop's data-dependent branching is measurably
   slower. *)
let popcount_word w =
  let w = (w land 0x1555555555555555) + ((w lsr 1) land 0x1555555555555555) in
  let w = (w land 0x3333333333333333) + ((w lsr 2) land 0x3333333333333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (w * 0x0101010101010101) lsr 56 land 0x7F

let popcount_int = popcount_word

let popcount v = Array.fold_left (fun acc w -> acc + popcount_word w) 0 v.words

let binop_into op dst src =
  if dst.len <> src.len then invalid_arg "Bitvec: length mismatch";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- op dst.words.(i) src.words.(i)
  done

let xor_into dst src = binop_into ( lxor ) dst src
let and_into dst src = binop_into ( land ) dst src
let or_into dst src = binop_into ( lor ) dst src

let is_zero v = Array.for_all (fun w -> w = 0) v.words

(* Bits [0, bits) of word [k]: every word is full but the last. *)
let word_mask len k =
  let bits = min bits_per_word (len - (k * bits_per_word)) in
  (1 lsl bits) - 1

let lognot v =
  { len = v.len;
    words = Array.mapi (fun k w -> w lxor word_mask v.len k) v.words }

let fold_set_bits f v init =
  let acc = ref init in
  for w = 0 to Array.length v.words - 1 do
    let word = ref v.words.(w) in
    while !word <> 0 do
      let low = !word land - !word in
      let o =
        (* index of the isolated low bit *)
        let rec go b i = if b = 1 then i else go (b lsr 1) (i + 1) in
        go low 0
      in
      acc := f ((w * bits_per_word) + o) !acc;
      word := !word land lnot low
    done
  done;
  !acc

let of_int n v =
  if n < 0 || n > bits_per_word then invalid_arg "Bitvec.of_int";
  let r = create n in
  for i = 0 to n - 1 do
    if v lsr i land 1 = 1 then set r i true
  done;
  r

let to_int v =
  if v.len > bits_per_word then invalid_arg "Bitvec.to_int: too long";
  if v.len = 0 then 0 else v.words.(0)

let random g n =
  let r = create n in
  for i = 0 to n - 1 do
    set r i (Prng.bool g)
  done;
  r

let append a b =
  let r = create (a.len + b.len) in
  for i = 0 to a.len - 1 do
    set r i (get a i)
  done;
  for i = 0 to b.len - 1 do
    set r (a.len + i) (get b i)
  done;
  r

let sub v pos len =
  if pos < 0 || len < 0 || pos + len > v.len then invalid_arg "Bitvec.sub";
  let r = create len in
  for i = 0 to len - 1 do
    set r i (get v (pos + i))
  done;
  r

let of_words len src pos =
  let n = words_for len in
  if len < 0 || pos < 0 || pos + n > Array.length src then
    invalid_arg "Bitvec.of_words";
  let words = Array.sub src pos n in
  for k = 0 to n - 1 do
    let bits = min bits_per_word (len - (k * bits_per_word)) in
    if words.(k) lsr bits <> 0 then invalid_arg "Bitvec.of_words: bit past the end"
  done;
  { len; words }

let blit_words v dst pos =
  if pos < 0 || pos + Array.length v.words > Array.length dst then
    invalid_arg "Bitvec.blit_words";
  Array.blit v.words 0 dst pos (Array.length v.words)

(* Word by word, low nibble first: the same bits always give the same
   digits, and the length fixes the width. *)
let hex_digits len =
  let full = len / bits_per_word and rest = len mod bits_per_word in
  (full * ((bits_per_word + 3) / 4)) + ((rest + 3) / 4)

let blit_hex v b pos =
  let p = ref pos in
  for k = 0 to Array.length v.words - 1 do
    let w = v.words.(k) in
    for d = 0 to ((min bits_per_word (v.len - (k * bits_per_word)) + 3) / 4) - 1 do
      Bytes.set b !p "0123456789abcdef".[(w lsr (4 * d)) land 15];
      incr p
    done
  done

let to_string v = String.init v.len (fun i -> if get v i then '1' else '0')

let of_string s =
  let r = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set r i true
      | _ -> invalid_arg "Bitvec.of_string: expected '0' or '1'")
    s;
  r
