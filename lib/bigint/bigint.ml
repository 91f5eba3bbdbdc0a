(* Sign-magnitude bignums over base-2^31 limbs.

   The base is chosen so that a limb product plus two carries stays
   strictly within OCaml's 63-bit native-int range:
   (2^31-1)^2 + 2*(2^31-1) = 2^62 - 1 = max_int.  All magnitude-level
   helpers below operate on little-endian [int array]s with no leading
   zero limb ("normalized"), except where noted. *)

let base_bits = 31
let base = 1 lsl base_bits
let mask = base - 1

type t = { sign : int; mag : int array }

(* ------------------------------------------------------------------ *)
(* Magnitude helpers                                                   *)
(* ------------------------------------------------------------------ *)

let mag_zero : int array = [||]

let norm a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lo, hi = if la <= lb then (a, b) else (b, a) in
  let llo = Array.length lo and lhi = Array.length hi in
  let r = Array.make (lhi + 1) 0 in
  let carry = ref 0 in
  for i = 0 to llo - 1 do
    let s = lo.(i) + hi.(i) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  for i = llo to lhi - 1 do
    let s = hi.(i) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(lhi) <- !carry;
  norm r

(* Requires a >= b (as magnitudes). *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bi = if i < lb then b.(i) else 0 in
    let d = a.(i) - bi - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  norm r

let mul_mag_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then mag_zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- t land mask;
          carry := t lsr base_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    norm r
  end

let karatsuba_threshold = 64

(* a * B^limbs where B = 2^31: prepend zero limbs. *)
let shift_limbs a limbs =
  let la = Array.length a in
  if la = 0 then mag_zero
  else begin
    let r = Array.make (la + limbs) 0 in
    Array.blit a 0 r limbs la;
    r
  end

let rec mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then mag_zero
  else if Stdlib.min la lb < karatsuba_threshold then mul_mag_school a b
  else begin
    (* Karatsuba: split both operands at h limbs. *)
    let h = (Stdlib.max la lb + 1) / 2 in
    let lo x = norm (Array.sub x 0 (Stdlib.min h (Array.length x))) in
    let hi x =
      let lx = Array.length x in
      if lx <= h then mag_zero else Array.sub x h (lx - h)
    in
    let a0 = lo a and a1 = hi a and b0 = lo b and b1 = hi b in
    let z0 = mul_mag a0 b0 in
    let z2 = mul_mag a1 b1 in
    let sa = add_mag a0 a1 and sb = add_mag b0 b1 in
    let z1 = sub_mag (sub_mag (mul_mag sa sb) z0) z2 in
    add_mag (add_mag (shift_limbs z2 (2 * h)) (shift_limbs z1 h)) z0
  end

(* Multiply magnitude by a small non-negative int < base. *)
let mul_mag_small a v =
  if v = 0 || Array.length a = 0 then mag_zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) * v) + !carry in
      r.(i) <- t land mask;
      carry := t lsr base_bits
    done;
    r.(la) <- !carry;
    norm r
  end

(* Add a small non-negative int < base to a magnitude. *)
let add_mag_small a v =
  if v = 0 then a
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    Array.blit a 0 r 0 la;
    let carry = ref v in
    let i = ref 0 in
    while !carry <> 0 && !i <= la do
      let t = r.(!i) + !carry in
      r.(!i) <- t land mask;
      carry := t lsr base_bits;
      incr i
    done;
    norm r
  end

let shift_left_mag a bits =
  if Array.length a = 0 || bits = 0 then a
  else begin
    let limbs = bits / base_bits and s = bits mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if s = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let t = (a.(i) lsl s) lor !carry in
        r.(i + limbs) <- t land mask;
        carry := t lsr base_bits
      done;
      r.(la + limbs) <- !carry
    end;
    norm r
  end

let shift_right_mag a bits =
  if Array.length a = 0 || bits = 0 then a
  else begin
    let limbs = bits / base_bits and s = bits mod base_bits in
    let la = Array.length a in
    if limbs >= la then mag_zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if s = 0 then Array.blit a limbs r 0 lr
      else
        for i = 0 to lr - 1 do
          let low = a.(i + limbs) lsr s in
          let high =
            if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (base_bits - s)) land mask
            else 0
          in
          r.(i) <- low lor high
        done;
      norm r
    end
  end

let bits_of_limb v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

(* Knuth Algorithm D.  Returns (quotient, remainder) of magnitudes. *)
let divmod_mag u v =
  let n = Array.length v in
  if n = 0 then raise Division_by_zero;
  if cmp_mag u v < 0 then (mag_zero, u)
  else if n = 1 then begin
    (* Single-limb divisor: straightforward long division. *)
    let d = v.(0) in
    let m = Array.length u in
    let q = Array.make m 0 in
    let r = ref 0 in
    for i = m - 1 downto 0 do
      let cur = (!r lsl base_bits) lor u.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (norm q, if !r = 0 then mag_zero else [| !r |])
  end
  else begin
    let m = Array.length u in
    (* Normalize: shift so the divisor's top limb has its high bit set. *)
    let s = base_bits - bits_of_limb v.(n - 1) in
    let vn = Array.make n 0 in
    for i = n - 1 downto 1 do
      vn.(i) <- ((v.(i) lsl s) lor (v.(i - 1) lsr (base_bits - s))) land mask
    done;
    vn.(0) <- (v.(0) lsl s) land mask;
    let un = Array.make (m + 1) 0 in
    un.(m) <- if s = 0 then 0 else u.(m - 1) lsr (base_bits - s);
    for i = m - 1 downto 1 do
      un.(i) <- ((u.(i) lsl s) lor (u.(i - 1) lsr (base_bits - s))) land mask
    done;
    un.(0) <- (u.(0) lsl s) land mask;
    let q = Array.make (m - n + 1) 0 in
    for j = m - n downto 0 do
      let num = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
      let qhat = ref (num / vn.(n - 1)) in
      let rhat = ref (num mod vn.(n - 1)) in
      let continue = ref true in
      while !continue do
        if
          !qhat >= base
          || !qhat * vn.(n - 2) > (!rhat lsl base_bits) lor un.(j + n - 2)
        then begin
          decr qhat;
          rhat := !rhat + vn.(n - 1);
          if !rhat >= base then continue := false
        end
        else continue := false
      done;
      (* Multiply-subtract qhat * vn from un[j .. j+n]. *)
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * vn.(i) in
        let t = un.(i + j) - !carry - (p land mask) in
        un.(i + j) <- t land mask;
        carry := (p lsr base_bits) - (t asr base_bits)
      done;
      let t = un.(j + n) - !carry in
      un.(j + n) <- t land mask;
      if t < 0 then begin
        (* qhat was one too large: add the divisor back. *)
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s2 = un.(i + j) + vn.(i) + !c in
          un.(i + j) <- s2 land mask;
          c := s2 lsr base_bits
        done;
        un.(j + n) <- (un.(j + n) + !c) land mask
      end;
      q.(j) <- !qhat
    done;
    let r = norm (Array.sub un 0 n) in
    (norm q, shift_right_mag r s)
  end

(* ------------------------------------------------------------------ *)
(* Signed layer                                                        *)
(* ------------------------------------------------------------------ *)

let make sign mag =
  let mag = norm mag in
  if Array.length mag = 0 then { sign = 0; mag = mag_zero } else { sign; mag }

let zero = { sign = 0; mag = mag_zero }
let one = { sign = 1; mag = [| 1 |] }
let minus_one = { sign = -1; mag = [| 1 |] }
let two = { sign = 1; mag = [| 2 |] }

let of_int v =
  if v = 0 then zero
  else begin
    let sign = if v < 0 then -1 else 1 in
    if v = Stdlib.min_int then
      (* |min_int| = 2^62 overflows [abs]; its limbs are [0; 0; 1]. *)
      { sign; mag = [| 0; 0; 1 |] }
    else begin
      let rec limbs v acc =
        if v = 0 then acc else limbs (v lsr base_bits) ((v land mask) :: acc)
      in
      let l = List.rev (limbs (Stdlib.abs v) []) in
      make sign (Array.of_list l)
    end
  end

let sign x = x.sign
let is_zero x = x.sign = 0
let is_one x = x.sign = 1 && Array.length x.mag = 1 && x.mag.(0) = 1
let equal a b = a.sign = b.sign && a.mag = b.mag

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let hash x = Hashtbl.hash (x.sign, x.mag)

let bit_length x =
  let n = Array.length x.mag in
  if n = 0 then 0 else ((n - 1) * base_bits) + bits_of_limb x.mag.(n - 1)

let test_bit x i =
  if i < 0 then invalid_arg "Bigint.test_bit";
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length x.mag && x.mag.(limb) lsr off land 1 = 1

let is_even x = Array.length x.mag = 0 || x.mag.(0) land 1 = 0
let is_odd x = not (is_even x)

let to_int_opt x =
  if Array.length x.mag = 0 then Some 0
  else begin
    let bl = bit_length x in
    if bl > 63 then None
    else if bl = 63 then
      (* Magnitude in [2^62, 2^63): only -2^62 = min_int fits. *)
      if x.sign < 0 && x.mag = [| 0; 0; 1 |] then Some Stdlib.min_int else None
    else begin
      let v = ref 0 in
      for i = Array.length x.mag - 1 downto 0 do
        v := (!v lsl base_bits) lor x.mag.(i)
      done;
      (* bl <= 62 so the accumulated magnitude is below 2^62: no wrap. *)
      Some (if x.sign < 0 then - !v else !v)
    end
  end

let fits_int x = to_int_opt x <> None

let to_int x =
  match to_int_opt x with
  | Some v -> v
  | None -> failwith "Bigint.to_int: value out of native int range"

let neg x = { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (add_mag a.mag b.mag)
  else begin
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (sub_mag a.mag b.mag)
    else make b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mul_mag a.mag b.mag)

let mul_schoolbook a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mul_mag_school a.mag b.mag)

let mul_int a v =
  if v = 0 || a.sign = 0 then zero
  else if v > 0 && v < base then make a.sign (mul_mag_small a.mag v)
  else if v > -base && v < 0 then make (-a.sign) (mul_mag_small a.mag (-v))
  else mul a (of_int v)

let add_int a v =
  if v = 0 then a
  else if a.sign >= 0 && v > 0 && v < base then
    make 1 (add_mag_small a.mag v)
  else add a (of_int v)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else begin
    let q, r = divmod_mag a.mag b.mag in
    let q = make (a.sign * b.sign) q in
    let r = make a.sign r in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (sub q one, add r b)
  else (add q one, sub r b)

let erem a b = snd (ediv_rem a b)

(* Word-size Euclidean remainder without Algorithm D: scan the limbs
   high to low with the running remainder kept below [m], so each step
   ((r << 31) | limb, with r < m < 2^31) stays under 2^62 and fits a
   native int.  The batched determinant filter reduces every matrix
   entry through this; unlike [erem] it allocates nothing. *)
let rem_int x m =
  if m <= 1 || m >= base then
    invalid_arg "Bigint.rem_int: modulus must be in (1, 2^31)";
  let r = ref 0 in
  for i = Array.length x.mag - 1 downto 0 do
    r := ((!r lsl base_bits) lor Array.unsafe_get x.mag i) mod m
  done;
  if x.sign < 0 && !r <> 0 then m - !r else !r

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else go (if e land 1 = 1 then mul acc b else acc) (mul b b) (e lsr 1)
  in
  go one b e

let shift_left x n =
  if n < 0 then invalid_arg "Bigint.shift_left";
  if x.sign = 0 then zero else make x.sign (shift_left_mag x.mag n)

let shift_right x n =
  if n < 0 then invalid_arg "Bigint.shift_right";
  if x.sign = 0 then zero else make x.sign (shift_right_mag x.mag n)

let isqrt x =
  if x.sign < 0 then invalid_arg "Bigint.isqrt: negative";
  if x.sign = 0 then zero
  else begin
    (* Newton iteration from a power-of-two overestimate; decreasing,
       terminates at floor(sqrt x). *)
    let s = ref (shift_left one ((bit_length x + 1) / 2)) in
    let continue = ref true in
    while !continue do
      let next = shift_right (add !s (div x !s)) 1 in
      if compare next !s < 0 then s := next else continue := false
    done;
    !s
  end

let isqrt_ceil x =
  let s = isqrt x in
  if equal (mul s s) x then s else add s one

let rec gcd_mag a b =
  if Array.length b = 0 then a
  else
    let _, r = divmod_mag a b in
    gcd_mag b r

let gcd a b =
  let r =
    if cmp_mag a.mag b.mag >= 0 then gcd_mag a.mag b.mag
    else gcd_mag b.mag a.mag
  in
  make 1 r

let gcdext a b =
  (* Iterative extended Euclid maintaining r = a*x + b*y. *)
  let rec go r0 x0 y0 r1 x1 y1 =
    if is_zero r1 then (r0, x0, y0)
    else begin
      let q, r2 = divmod r0 r1 in
      go r1 x1 y1 r2 (sub x0 (mul q x1)) (sub y0 (mul q y1))
    end
  in
  let g, x, y = go a one zero b zero one in
  if g.sign < 0 then (neg g, neg x, neg y) else (g, x, y)

let lcm a b =
  if is_zero a || is_zero b then zero
  else
    let g = gcd a b in
    abs (mul (div a g) b)

(* ------------------------------------------------------------------ *)
(* Strings                                                             *)
(* ------------------------------------------------------------------ *)

let chunk_base = 1_000_000_000 (* 10^9 < 2^31 *)
let chunk_digits = 9

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks m acc =
      if Array.length m = 0 then acc
      else begin
        let q, r = divmod_mag m [| chunk_base |] in
        let rv = if Array.length r = 0 then 0 else r.(0) in
        chunks q (rv :: acc)
      end
    in
    (match chunks x.mag [] with
    | [] -> assert false
    | first :: rest ->
        if x.sign < 0 then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter
          (fun c -> Buffer.add_string buf (Printf.sprintf "%0*d" chunk_digits c))
          rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign_char, start =
    match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let chunk = ref 0 and chunk_len = ref 0 in
  let flush () =
    if !chunk_len > 0 then begin
      acc := add_int (mul_int !acc (Commx_util.Combi.power 10 !chunk_len)) !chunk;
      chunk := 0;
      chunk_len := 0
    end
  in
  let saw_digit = ref false in
  for i = start to len - 1 do
    match s.[i] with
    | '0' .. '9' as c ->
        saw_digit := true;
        chunk := (!chunk * 10) + (Char.code c - Char.code '0');
        incr chunk_len;
        if !chunk_len = chunk_digits then flush ()
    | '_' -> ()
    | _ -> invalid_arg "Bigint.of_string: invalid character"
  done;
  flush ();
  if not !saw_digit then invalid_arg "Bigint.of_string: no digits";
  if sign_char < 0 then neg !acc else !acc

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None

(* ------------------------------------------------------------------ *)
(* Operators, random, misc                                             *)
(* ------------------------------------------------------------------ *)

let ( +! ) = add
let ( -! ) = sub
let ( *! ) = mul
let ( /! ) = div
let ( %! ) = rem
let ( =! ) = equal
let ( <! ) a b = compare a b < 0
let ( <=! ) a b = compare a b <= 0
let ( >! ) a b = compare a b > 0
let ( >=! ) a b = compare a b >= 0

let random_bits g bits =
  if bits < 0 then invalid_arg "Bigint.random_bits";
  if bits = 0 then zero
  else begin
    let nlimbs = (bits + base_bits - 1) / base_bits in
    let mag = Array.make nlimbs 0 in
    for i = 0 to nlimbs - 1 do
      mag.(i) <- Commx_util.Prng.int g base
    done;
    let top_bits = bits - ((nlimbs - 1) * base_bits) in
    mag.(nlimbs - 1) <- mag.(nlimbs - 1) land ((1 lsl top_bits) - 1);
    make 1 mag
  end

let random_below g bound =
  if bound.sign <= 0 then invalid_arg "Bigint.random_below: bound <= 0";
  let bits = bit_length bound in
  let rec draw () =
    let v = random_bits g bits in
    if compare v bound < 0 then v else draw ()
  in
  draw ()

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let pp ppf x = Format.pp_print_string ppf (to_string x)
