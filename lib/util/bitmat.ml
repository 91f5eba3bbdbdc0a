type t = { nrows : int; ncols : int; data : Bitvec.t array }

let create nrows ncols =
  if nrows < 0 || ncols < 0 then invalid_arg "Bitmat.create";
  { nrows; ncols; data = Array.init nrows (fun _ -> Bitvec.create ncols) }

let rows m = m.nrows
let cols m = m.ncols

let check m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Bitmat: index out of bounds"

let get m i j =
  check m i j;
  Bitvec.get m.data.(i) j

let set m i j b =
  check m i j;
  Bitvec.set m.data.(i) j b

let copy m =
  { nrows = m.nrows; ncols = m.ncols; data = Array.map Bitvec.copy m.data }

let equal a b =
  a.nrows = b.nrows && a.ncols = b.ncols
  && Array.for_all2 Bitvec.equal a.data b.data

let row m i =
  if i < 0 || i >= m.nrows then invalid_arg "Bitmat.row";
  Bitvec.copy m.data.(i)

let init nrows ncols f =
  let m = create nrows ncols in
  for i = 0 to nrows - 1 do
    for j = 0 to ncols - 1 do
      if f i j then set m i j true
    done
  done;
  m

let of_packed_rows nrows ncols words =
  if nrows < 0 || ncols < 0 then invalid_arg "Bitmat.of_packed_rows";
  let w = Bitvec.words_for ncols in
  { nrows; ncols;
    data = Array.init nrows (fun i -> Bitvec.of_words ncols words (i * w)) }

let to_words m =
  let w = Bitvec.words_for m.ncols in
  let words = Array.make (m.nrows * w) 0 in
  Array.iteri (fun i r -> Bitvec.blit_words r words (i * w)) m.data;
  words

let key m =
  let dims = string_of_int m.nrows ^ "x" ^ string_of_int m.ncols ^ ":" in
  let width = Bitvec.hex_digits m.ncols and d = String.length dims in
  let b = Bytes.create (d + (m.nrows * width)) in
  Bytes.blit_string dims 0 b 0 d;
  Array.iteri (fun i r -> Bitvec.blit_hex r b (d + (i * width))) m.data;
  Bytes.unsafe_to_string b

let transpose m =
  let t = create m.ncols m.nrows in
  Array.iteri
    (fun i r -> Bitvec.fold_set_bits (fun j () -> Bitvec.set t.data.(j) i true) r ())
    m.data;
  t

let mul a b =
  if a.ncols <> b.nrows then invalid_arg "Bitmat.mul: dimension mismatch";
  (* Row-oriented: row i of the product is the XOR of the rows of b
     selected by the set bits of row i of a. *)
  let r = create a.nrows b.ncols in
  for i = 0 to a.nrows - 1 do
    Bitvec.fold_set_bits
      (fun k () -> Bitvec.xor_into r.data.(i) b.data.(k))
      a.data.(i) ()
  done;
  r

let identity n = init n n (fun i j -> i = j)

let rank m =
  let work = Array.map Bitvec.copy m.data in
  let nrows = m.nrows and ncols = m.ncols in
  let rank = ref 0 in
  let pivot_row = ref 0 in
  let col = ref 0 in
  while !pivot_row < nrows && !col < ncols do
    (* Find a row with a 1 in the current column at or below pivot_row. *)
    let found = ref (-1) in
    let i = ref !pivot_row in
    while !found < 0 && !i < nrows do
      if Bitvec.get work.(!i) !col then found := !i;
      incr i
    done;
    (match !found with
    | -1 -> ()
    | f ->
        let tmp = work.(!pivot_row) in
        work.(!pivot_row) <- work.(f);
        work.(f) <- tmp;
        for r = 0 to nrows - 1 do
          if r <> !pivot_row && Bitvec.get work.(r) !col then
            Bitvec.xor_into work.(r) work.(!pivot_row)
        done;
        incr pivot_row;
        incr rank);
    incr col
  done;
  !rank

(* Word-level elimination over rows packed one-int-per-row.  Mutates
   [buf.(0 .. nrows-1)] in place; the caller owns the buffer, which is
   what lets [rank_batch] reuse one scratch array across thousands of
   boards instead of allocating a row-copy per call like [rank]. *)
let rank_packed_inplace buf nrows ncols =
  let rank = ref 0 in
  let col = ref 0 in
  while !rank < nrows && !col < ncols do
    let bit = 1 lsl !col in
    let found = ref (-1) in
    let i = ref !rank in
    while !found < 0 && !i < nrows do
      if buf.(!i) land bit <> 0 then found := !i;
      incr i
    done;
    (match !found with
    | -1 -> ()
    | f ->
        let p = buf.(f) in
        buf.(f) <- buf.(!rank);
        buf.(!rank) <- p;
        (* Row echelon is enough for rank: rows above the pivot keep
           their copy of this column, halving the XOR work of the full
           reduction [rank] performs. *)
        for r = !rank + 1 to nrows - 1 do
          if buf.(r) land bit <> 0 then buf.(r) <- buf.(r) lxor p
        done;
        incr rank);
    incr col
  done;
  !rank

let rank_batch ms =
  let scratch_rows =
    Array.fold_left
      (fun acc m -> if m.ncols <= Bitvec.bits_per_word then max acc m.nrows else acc)
      0 ms
  in
  let buf = Array.make (max scratch_rows 1) 0 in
  Array.map
    (fun m ->
      if m.ncols > Bitvec.bits_per_word then rank m
      else begin
        for i = 0 to m.nrows - 1 do
          buf.(i) <- Bitvec.to_int m.data.(i)
        done;
        rank_packed_inplace buf m.nrows m.ncols
      end)
    ms

let count_ones m =
  Array.fold_left (fun acc r -> acc + Bitvec.popcount r) 0 m.data

let submatrix m rs cs =
  init (Array.length rs) (Array.length cs) (fun i j -> get m rs.(i) cs.(j))

let random g nrows ncols = init nrows ncols (fun _ _ -> Prng.bool g)

let complement m = { m with data = Array.map Bitvec.lognot m.data }

(* Packed-word extraction: the exact-CC search works on (row set,
   column set) masks and needs each line of the matrix as one native
   int so monochromaticity and duplicate tests are word ops, never
   per-bit accessors.  Sub-matrix extraction is then [word land mask]
   at the call site. *)

let packed_rows m =
  if m.ncols > Bitvec.bits_per_word then
    invalid_arg "Bitmat.packed_rows: too many columns to pack";
  Array.init m.nrows (fun i ->
      let r = ref 0 in
      for j = m.ncols - 1 downto 0 do
        r := (!r lsl 1) lor if get m i j then 1 else 0
      done;
      !r)

let packed_cols m =
  if m.nrows > Bitvec.bits_per_word then
    invalid_arg "Bitmat.packed_cols: too many rows to pack";
  Array.init m.ncols (fun j ->
      let c = ref 0 in
      for i = m.nrows - 1 downto 0 do
        c := (!c lsl 1) lor if get m i j then 1 else 0
      done;
      !c)

(* [mono_masked rows ~rmask ~cmask] classifies the sub-matrix selected
   by the index masks over packed rows: [0] all-zero, [1] all-one,
   [-1] mixed.  Empty sub-matrices are all-zero by convention.  Cost:
   one [land] and compare per selected row. *)
let mono_masked rows ~rmask ~cmask =
  if rmask = 0 || cmask = 0 then 0
  else begin
    let first = rows.(Bitvec.popcount_int ((rmask land -rmask) - 1)) in
    let expect = first land cmask in
    if expect <> 0 && expect <> cmask then -1
    else begin
      let ok = ref true in
      let rem = ref rmask in
      while !ok && !rem <> 0 do
        let low = !rem land - !rem in
        let i = Bitvec.popcount_int (low - 1) in
        if rows.(i) land cmask <> expect then ok := false;
        rem := !rem lxor low
      done;
      if not !ok then -1 else if expect = 0 then 0 else 1
    end
  end

let pp ppf m =
  for i = 0 to m.nrows - 1 do
    if i > 0 then Format.pp_print_cut ppf ();
    Format.pp_print_string ppf (Bitvec.to_string m.data.(i))
  done
