module Word = struct
  type modulus = int

  let word_limit = 1 lsl 31

  let modulus m =
    if m < 2 || m >= word_limit then
      invalid_arg "Modarith.Word.modulus: need 2 <= m < 2^31";
    m

  let to_int m = m

  let reduce m x =
    let r = x mod m in
    if r < 0 then r + m else r

  let reduce_big m x = Bigint.to_int (Bigint.erem x (Bigint.of_int m))

  let add m a b =
    let s = a + b in
    if s >= m then s - m else s

  let sub m a b =
    let d = a - b in
    if d < 0 then d + m else d

  (* a, b < 2^31 so a*b < 2^62 fits a native int. *)
  let mul m a b = a * b mod m

  let pow m b e =
    if e < 0 then invalid_arg "Modarith.Word.pow: negative exponent";
    let rec go acc b e =
      if e = 0 then acc
      else go (if e land 1 = 1 then mul m acc b else acc) (mul m b b) (e lsr 1)
    in
    go 1 (reduce m b) e

  let inv m x =
    (* Extended Euclid on native ints. *)
    let rec go r0 t0 r1 t1 =
      if r1 = 0 then (r0, t0) else go r1 t1 (r0 mod r1) (t0 - (r0 / r1 * t1))
    in
    let x = reduce m x in
    let g, t = go m 0 x 1 in
    if g <> 1 then raise Division_by_zero;
    reduce m t

  let neg m x = if x = 0 then 0 else m - reduce m x

  let elim m a ~rows ~cols =
    if rows < 0 || cols < 0 || Array.length a < rows * cols then
      invalid_arg "Modarith.Word.elim: bad dimensions";
    let det = ref 1 and rank = ref 0 and col = ref 0 in
    while !rank < rows && !col < cols do
      let c = !col and top = !rank * cols in
      let piv = ref !rank in
      while !piv < rows && a.((!piv * cols) + c) = 0 do
        incr piv
      done;
      if !piv < rows then begin
        if !piv <> !rank then begin
          let other = !piv * cols in
          for j = c to cols - 1 do
            let t = a.(top + j) in
            a.(top + j) <- a.(other + j);
            a.(other + j) <- t
          done;
          det := neg m !det
        end;
        let pv = a.(top + c) in
        det := mul m !det pv;
        let pinv = inv m pv in
        for i = !rank + 1 to rows - 1 do
          let row = i * cols in
          let f = a.(row + c) in
          if f <> 0 then begin
            (* Row update with the negated multiplier, so each cell is
               one non-negative multiply-add and a single [mod]: below
               2^31 * 2^31 + 2^31, inside a 63-bit int. *)
            let nf = m - mul m f pinv in
            for j = c + 1 to cols - 1 do
              a.(row + j) <- (a.(row + j) + (nf * a.(top + j))) mod m
            done
          end
        done;
        incr rank
      end;
      incr col
    done;
    ((if rows = cols && !rank = rows then !det else 0), !rank)
end

let add ~m a b = Bigint.erem (Bigint.add a b) m
let sub ~m a b = Bigint.erem (Bigint.sub a b) m
let mul ~m a b = Bigint.erem (Bigint.mul (Bigint.erem a m) (Bigint.erem b m)) m

let pow ~m b e =
  if Bigint.sign e < 0 then invalid_arg "Modarith.pow: negative exponent";
  let b = ref (Bigint.erem b m) in
  let e = ref e in
  let acc = ref (Bigint.erem Bigint.one m) in
  while not (Bigint.is_zero !e) do
    if Bigint.is_odd !e then acc := mul ~m !acc !b;
    b := mul ~m !b !b;
    e := Bigint.shift_right !e 1
  done;
  !acc

let inv ~m x =
  let g, s, _ = Bigint.gcdext (Bigint.erem x m) m in
  if not (Bigint.is_one g) then raise Division_by_zero;
  Bigint.erem s m

let crt pairs =
  match pairs with
  | [] -> invalid_arg "Modarith.crt: empty system"
  | (r0, m0) :: rest ->
      let combine (r, m) (r', m') =
        (* Find x = r (mod m), x = r' (mod m'). *)
        let g, s, _ = Bigint.gcdext m m' in
        if not (Bigint.is_one g) then
          invalid_arg "Modarith.crt: moduli not coprime";
        let diff = Bigint.sub r' r in
        let t = Bigint.erem (Bigint.mul diff s) m' in
        let x = Bigint.add r (Bigint.mul m t) in
        let mm = Bigint.mul m m' in
        (Bigint.erem x mm, mm)
      in
      List.fold_left combine (Bigint.erem r0 m0, m0) rest
