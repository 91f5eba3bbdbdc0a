(* Tests for the bignum substrate: unit cases pinned against known
   values and an int64 oracle, plus qcheck properties for the ring
   axioms, division invariants, gcd, string round-trips, and modular
   arithmetic. *)

module B = Commx_bigint.Bigint
module Q = Commx_bigint.Rational
module M = Commx_bigint.Modarith
module P = Commx_bigint.Primes
module Prng = Commx_util.Prng

let bi = Alcotest.testable B.pp B.equal
let rat = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Bigints spanning one to several limbs, biased toward structured
   values (powers of two, +-1 neighborhoods) where carry bugs live. *)
let gen_bigint =
  let open QCheck.Gen in
  let structured =
    let* bits = int_range 0 200 in
    let* delta = int_range (-2) 2 in
    let* sgn = oneofl [ 1; -1 ] in
    let v = B.add_int (B.shift_left B.one bits) delta in
    return (if sgn < 0 then B.neg v else v)
  in
  let random_bits =
    let* bits = int_range 0 250 in
    let* seed = int_range 0 1_000_000 in
    let* sgn = oneofl [ 1; -1 ] in
    let g = Prng.create seed in
    let v = B.random_bits g bits in
    return (if sgn < 0 then B.neg v else v)
  in
  let small = map B.of_int (int_range (-1000) 1000) in
  frequency [ (3, random_bits); (2, structured); (2, small) ]

let arb_bigint = QCheck.make ~print:B.to_string gen_bigint

let arb_pair = QCheck.pair arb_bigint arb_bigint
let arb_triple = QCheck.triple arb_bigint arb_bigint arb_bigint

let qtest ?(count = 500) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  Alcotest.(check string) "zero" "0" (B.to_string B.zero);
  Alcotest.(check string) "one" "1" (B.to_string B.one);
  Alcotest.(check string) "minus_one" "-1" (B.to_string B.minus_one);
  Alcotest.(check bool) "is_zero" true (B.is_zero B.zero);
  Alcotest.(check bool) "is_one" true (B.is_one B.one);
  Alcotest.(check int) "sign zero" 0 (B.sign B.zero)

let test_of_int_roundtrip () =
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v B.(to_int (of_int v)))
    [ 0; 1; -1; 42; -42; max_int; min_int; 1 lsl 31; (1 lsl 31) - 1;
      -(1 lsl 31); 1 lsl 62; (* min_int is 1 lsl 62 negated *) ]

let test_string_known () =
  let cases =
    [ ("0", "0");
      ("-0", "0");
      ("12345678901234567890123456789", "12345678901234567890123456789");
      ("-987654321098765432109876543210", "-987654321098765432109876543210");
      ("1_000_000", "1000000");
      ("+77", "77") ]
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected B.(to_string (of_string input)))
    cases

let test_string_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("reject " ^ s) true (B.of_string_opt s = None))
    [ ""; "-"; "+"; "12a"; "--5"; " 5" ]

let test_mul_known () =
  (* 2^100 * 2^100 = 2^200, checked against the decimal expansion. *)
  let p100 = B.shift_left B.one 100 in
  let p200 = B.mul p100 p100 in
  Alcotest.(check bi) "2^200" (B.shift_left B.one 200) p200;
  Alcotest.(check string) "2^200 decimal"
    "1606938044258990275541962092341162602522202993782792835301376"
    (B.to_string p200);
  (* factorial 30, a classic overflow case for 64-bit *)
  let fact n =
    let rec go acc i = if i > n then acc else go (B.mul_int acc i) (i + 1) in
    go B.one 1
  in
  Alcotest.(check string) "30!" "265252859812191058636308480000000"
    (B.to_string (fact 30))

let test_divmod_known () =
  let a = B.of_string "1000000000000000000000000000000000007" in
  let b = B.of_string "999999999999999989" in
  let q, r = B.divmod a b in
  Alcotest.(check bi) "reconstruct" a (B.add (B.mul q b) r);
  Alcotest.(check bool) "remainder bound" true B.(compare (abs r) (abs b) < 0);
  (* negative operands: truncation semantics like OCaml's (/) *)
  let check_signs x y =
    let bx = B.of_int x and by = B.of_int y in
    let q, r = B.divmod bx by in
    Alcotest.(check int) (Printf.sprintf "%d/%d" x y) (x / y) (B.to_int q);
    Alcotest.(check int) (Printf.sprintf "%d mod %d" x y) (x mod y) (B.to_int r)
  in
  List.iter
    (fun (x, y) -> check_signs x y)
    [ (7, 3); (-7, 3); (7, -3); (-7, -3); (6, 3); (-6, 3); (0, 5) ]

let test_division_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_pow () =
  Alcotest.(check bi) "3^40"
    (B.of_string "12157665459056928801")
    (B.pow (B.of_int 3) 40);
  Alcotest.(check bi) "x^0" B.one (B.pow (B.of_int 12345) 0);
  Alcotest.(check bi) "(-2)^63"
    (B.neg (B.shift_left B.one 63))
    (B.pow (B.of_int (-2)) 63)

let test_shift () =
  let x = B.of_string "123456789123456789123456789" in
  Alcotest.(check bi) "shift roundtrip" x (B.shift_right (B.shift_left x 97) 97);
  Alcotest.(check bi) "shift_right truncates" (B.of_int 0)
    (B.shift_right (B.of_int 1) 1);
  Alcotest.(check bi) "negative shift_right truncates toward zero"
    (B.of_int 0)
    (B.shift_right (B.of_int (-1)) 1)

let test_gcd_known () =
  Alcotest.(check bi) "gcd(48,36)" (B.of_int 12)
    (B.gcd (B.of_int 48) (B.of_int 36));
  Alcotest.(check bi) "gcd(0,x)" (B.of_int 7) (B.gcd B.zero (B.of_int (-7)));
  let a = B.of_string "123456789012345678901234567890" in
  Alcotest.(check bi) "gcd(a,a)" (B.abs a) (B.gcd a a)

let test_bit_length () =
  Alcotest.(check int) "bl 0" 0 (B.bit_length B.zero);
  Alcotest.(check int) "bl 1" 1 (B.bit_length B.one);
  Alcotest.(check int) "bl 2^31" 32 (B.bit_length (B.shift_left B.one 31));
  Alcotest.(check int) "bl 2^100-1" 100
    (B.bit_length (B.sub (B.shift_left B.one 100) B.one))

let test_isqrt_known () =
  List.iter
    (fun (x, expect) ->
      Alcotest.(check bi) (string_of_int x) (B.of_int expect)
        (B.isqrt (B.of_int x)))
    [ (0, 0); (1, 1); (2, 1); (3, 1); (4, 2); (8, 2); (9, 3); (99, 9);
      (100, 10); (101, 10) ];
  (* large: isqrt(10^40) = 10^20 *)
  Alcotest.(check bi) "10^40"
    (B.pow (B.of_int 10) 20)
    (B.isqrt (B.pow (B.of_int 10) 40));
  Alcotest.(check bi) "ceil of 2" (B.of_int 2) (B.isqrt_ceil (B.of_int 2));
  Alcotest.(check bi) "ceil exact" (B.of_int 3) (B.isqrt_ceil (B.of_int 9))

let prop_isqrt a =
  let x = B.abs a in
  let s = B.isqrt x in
  B.compare (B.mul s s) x <= 0
  && B.compare (B.mul (B.add s B.one) (B.add s B.one)) x > 0

let test_ediv () =
  List.iter
    (fun (x, y) ->
      let q, r = B.ediv_rem (B.of_int x) (B.of_int y) in
      Alcotest.(check bool)
        (Printf.sprintf "erem %d %d nonneg" x y)
        true
        (B.sign r >= 0);
      Alcotest.(check bool)
        (Printf.sprintf "erem %d %d bound" x y)
        true
        B.(compare r (abs (of_int y)) < 0);
      Alcotest.(check bi)
        (Printf.sprintf "ediv %d %d reconstruct" x y)
        (B.of_int x)
        B.(add (mul q (of_int y)) r))
    [ (7, 3); (-7, 3); (7, -3); (-7, -3); (0, 5); (-12, 4) ]

(* ------------------------------------------------------------------ *)
(* Property tests: ring axioms and division                            *)
(* ------------------------------------------------------------------ *)

let prop_add_comm (a, b) = B.equal (B.add a b) (B.add b a)

let prop_add_assoc (a, b, c) =
  B.equal (B.add (B.add a b) c) (B.add a (B.add b c))

let prop_mul_comm (a, b) = B.equal (B.mul a b) (B.mul b a)

let prop_mul_assoc (a, b, c) =
  B.equal (B.mul (B.mul a b) c) (B.mul a (B.mul b c))

let prop_distrib (a, b, c) =
  B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c))

let prop_add_neg a = B.is_zero (B.add a (B.neg a))

let prop_sub_add (a, b) = B.equal a (B.add (B.sub a b) b)

let prop_mul_school_agrees (a, b) = B.equal (B.mul a b) (B.mul_schoolbook a b)

(* Independent division oracle: binary shift-and-subtract long
   division on absolute values — slow but with no shared code paths
   with Knuth's Algorithm D (whose rare add-back branch this guards). *)
let slow_divmod a b =
  let an = B.abs a and bn = B.abs b in
  if B.compare an bn < 0 then (B.zero, a)
  else begin
    let shift = B.bit_length an - B.bit_length bn in
    let q = ref B.zero and r = ref an in
    for i = shift downto 0 do
      let d = B.shift_left bn i in
      if B.compare !r d >= 0 then begin
        r := B.sub !r d;
        q := B.add !q (B.shift_left B.one i)
      end
    done;
    let q = if B.sign a * B.sign b < 0 then B.neg !q else !q in
    let r = if B.sign a < 0 then B.neg !r else !r in
    (q, r)
  end

let prop_divmod_vs_slow_oracle (a, b) =
  B.is_zero b
  ||
  let q1, r1 = B.divmod a b in
  let q2, r2 = slow_divmod a b in
  B.equal q1 q2 && B.equal r1 r2

let test_divmod_addback_cases () =
  (* Dividends shaped to stress the qhat-correction and add-back
     branches: top limbs of u just below multiples of v's top limb. *)
  let big_pow2 e = B.shift_left B.one e in
  let cases =
    [ (B.sub (big_pow2 124) B.one, B.add (big_pow2 62) B.one);
      (B.sub (big_pow2 186) (big_pow2 93), B.sub (big_pow2 93) B.one);
      (B.add (big_pow2 155) (big_pow2 31), B.add (big_pow2 62) (big_pow2 31));
      (B.sub (big_pow2 248) B.one, B.sub (big_pow2 124) B.one) ]
  in
  List.iter
    (fun (u, v) ->
      let q, r = B.divmod u v in
      let q', r' = slow_divmod u v in
      Alcotest.(check bi) "q" q' q;
      Alcotest.(check bi) "r" r' r;
      Alcotest.(check bi) "reconstruct" u (B.add (B.mul q v) r))
    cases

(* Deterministic witnesses that drive Algorithm D into its add-back
   branch (probability ~2/2^31 on random inputs, and only reachable
   with a divisor of >= 3 limbs, so random stress rarely lands there).
   With base b = 2^31, v = [b-1; 0; 2^30] = 2^92 + (2^31 - 1) and
   u = [u0; 0; 0; 1] = 2^93 + u0, the first quotient-digit estimate is
   qhat = 2, the two-digit correction test passes (v's middle limb is
   0), the multiply-subtract goes negative, and add-back corrects the
   digit to the true q. *)
let test_divmod_addback_exact () =
  let p2 e = B.shift_left B.one e in
  let v = B.add (p2 92) (B.of_int ((1 lsl 31) - 1)) in
  (* Case 1: single-digit quotient.  q = 1, r = u - v. *)
  let u1 = B.add (p2 93) (B.of_int 5) in
  let q1, r1 = B.divmod u1 v in
  Alcotest.(check bi) "q1" B.one q1;
  Alcotest.(check bi) "r1" (B.sub u1 v) r1;
  (* Case 2: the add-back digit lands mid-quotient.  u = (2^93 + 5) *
     2^31 + 123456789; the true quotient is 2^32 - 1 (every corrected
     digit is b-1, the signature of add-back). *)
  let u2 = B.add (B.shift_left u1 31) (B.of_int 123_456_789) in
  let q2, r2 = B.divmod u2 v in
  Alcotest.(check bi) "q2" (B.of_int ((1 lsl 32) - 1)) q2;
  Alcotest.(check bi) "r2" (B.sub u2 (B.mul q2 v)) r2;
  Alcotest.(check bool) "r2 range" true (B.compare r2 v < 0 && B.sign r2 >= 0);
  List.iter
    (fun (u, v) ->
      let q, r = B.divmod u v in
      let q', r' = slow_divmod u v in
      Alcotest.(check bi) "q vs oracle" q' q;
      Alcotest.(check bi) "r vs oracle" r' r)
    [ (u1, v); (u2, v) ]

(* Divisor normalization boundaries of Algorithm D: top limb already
   normalized (shift 0, top limb 2^30), top limb 1 (maximal shift 30),
   and bit lengths at exact multiples of the 31-bit limb size, where
   the shift wraps to 0 on a fresh limb. *)
let test_divmod_normalization_boundaries () =
  let p2 e = B.shift_left B.one e in
  let u = B.add (p2 200) (B.of_int 987_654_321) in
  List.iter
    (fun e ->
      (* v = 2^e: quotient and remainder are pure shifts/masks. *)
      let v = p2 e in
      let q, r = B.divmod u v in
      Alcotest.(check bi)
        (Printf.sprintf "q shift %d" e)
        (B.shift_right u e) q;
      Alcotest.(check bi)
        (Printf.sprintf "r mask %d" e)
        (B.sub u (B.shift_left (B.shift_right u e) e))
        r)
    [ 30; 31; 61; 62; 92 ];
  List.iter
    (fun v ->
      let q, r = B.divmod u v in
      let q', r' = slow_divmod u v in
      Alcotest.(check bi) "norm q" q' q;
      Alcotest.(check bi) "norm r" r' r)
    [ p2 92;
      (* top limb 2^30: normalization shift 0 *)
      B.add (p2 92) (B.of_int ((1 lsl 31) - 1));
      p2 93;
      (* bit_length 94 = fresh limb: top limb 1, shift 30 *)
      B.sub (p2 93) B.one;
      (* bit_length 93 = 3 * 31 exactly *)
      B.add (p2 62) B.one ]

let test_to_int_boundaries () =
  let p62 = B.shift_left B.one 62 in
  Alcotest.(check int) "max_int" max_int (B.to_int (B.of_int max_int));
  Alcotest.(check int) "min_int" min_int (B.to_int (B.of_int min_int));
  Alcotest.(check (option int))
    "2^62 - 1 fits" (Some max_int)
    (B.to_int_opt (B.sub p62 B.one));
  Alcotest.(check (option int)) "2^62 does not fit" None (B.to_int_opt p62);
  Alcotest.(check (option int))
    "-2^62 is min_int" (Some min_int)
    (B.to_int_opt (B.neg p62));
  Alcotest.(check (option int))
    "-2^62 - 1 does not fit" None
    (B.to_int_opt (B.neg (B.add p62 B.one)));
  Alcotest.(check bool) "fits max" true (B.fits_int (B.of_int max_int));
  Alcotest.(check bool) "fits min" true (B.fits_int (B.of_int min_int));
  Alcotest.(check bool) "2^62 not fits" false (B.fits_int p62);
  Alcotest.check_raises "to_int 2^62"
    (Failure "Bigint.to_int: value out of native int range") (fun () ->
      ignore (B.to_int p62));
  (* String paths agree at both boundaries. *)
  Alcotest.(check int) "min_int via string" min_int
    (B.to_int (B.of_string (string_of_int min_int)));
  Alcotest.(check int) "max_int via string" max_int
    (B.to_int (B.of_string (string_of_int max_int)))

let prop_divmod (a, b) =
  B.is_zero b
  ||
  let q, r = B.divmod a b in
  B.equal a (B.add (B.mul q b) r)
  && B.compare (B.abs r) (B.abs b) < 0
  && (B.is_zero r || B.sign r = B.sign a)

let prop_string_roundtrip a = B.equal a (B.of_string (B.to_string a))

let prop_compare_antisym (a, b) = B.compare a b = -B.compare b a

let prop_compare_mul_positive (a, b) =
  (* multiplying by a positive value preserves order *)
  let p = B.of_int 17 in
  Stdlib.compare (B.compare a b) 0
  = Stdlib.compare (B.compare (B.mul a p) (B.mul b p)) 0

let prop_gcd_divides (a, b) =
  let g = B.gcd a b in
  if B.is_zero g then B.is_zero a && B.is_zero b
  else B.is_zero (B.rem a g) && B.is_zero (B.rem b g)

let prop_gcdext (a, b) =
  let g, x, y = B.gcdext a b in
  B.equal g (B.add (B.mul a x) (B.mul b y)) && B.sign g >= 0

let prop_shift_is_pow2 a =
  let x = B.shift_left a 13 in
  B.equal x (B.mul a (B.pow B.two 13))

let prop_bit_length_shift a =
  B.is_zero a
  || B.bit_length (B.shift_left a 7) = B.bit_length a + 7

let prop_int64_oracle (x, y) =
  (* Exercise against exact small values via int64 *)
  let x = x mod 1_000_000 and y = y mod 1_000_000 in
  let bx = B.of_int x and by = B.of_int y in
  B.to_int (B.mul bx by) = x * y
  && B.to_int (B.add bx by) = x + y
  && B.to_int (B.sub bx by) = x - y

(* ------------------------------------------------------------------ *)
(* Rational tests                                                      *)
(* ------------------------------------------------------------------ *)

let gen_rational =
  let open QCheck.Gen in
  let* n = gen_bigint in
  let* d = gen_bigint in
  return (if B.is_zero d then Q.of_bigint n else Q.make n d)

let arb_rational = QCheck.make ~print:Q.to_string gen_rational

let test_rational_canonical () =
  let r = Q.of_ints 6 (-4) in
  Alcotest.(check bi) "num" (B.of_int (-3)) (Q.num r);
  Alcotest.(check bi) "den" (B.of_int 2) (Q.den r);
  Alcotest.(check rat) "6/-4 = -3/2" (Q.of_ints (-3) 2) r;
  Alcotest.(check rat) "0/x" Q.zero (Q.of_ints 0 17)

let test_rational_arith () =
  Alcotest.(check rat) "1/2+1/3" (Q.of_ints 5 6)
    (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  Alcotest.(check rat) "1/2*2/3" (Q.of_ints 1 3)
    (Q.mul (Q.of_ints 1 2) (Q.of_ints 2 3));
  Alcotest.(check rat) "(2/3)^-1" (Q.of_ints 3 2) (Q.inv (Q.of_ints 2 3));
  Alcotest.check_raises "inv 0" Division_by_zero (fun () ->
      ignore (Q.inv Q.zero))

let test_rational_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true Q.(of_ints 1 3 </ of_ints 1 2);
  Alcotest.(check bool) "-1/2 < 1/3" true Q.(of_ints (-1) 2 </ of_ints 1 3);
  Alcotest.(check int) "sign" (-1) (Q.sign (Q.of_ints (-3) 7))

let prop_rational_field (a, b) =
  Q.is_zero b || Q.equal a (Q.mul (Q.div a b) b)

let prop_rational_add_assoc (a, b, c) =
  Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c))

let prop_rational_string a = Q.equal a (Q.of_string (Q.to_string a))

let prop_rational_den_positive a = B.sign (Q.den a) > 0

let prop_rational_reduced a =
  B.is_one (B.gcd (Q.num a) (Q.den a)) || Q.is_zero a

(* ------------------------------------------------------------------ *)
(* Modular arithmetic and primes                                       *)
(* ------------------------------------------------------------------ *)

let test_word_mod_basics () =
  let m = M.Word.modulus 97 in
  Alcotest.(check int) "reduce -1" 96 (M.Word.reduce m (-1));
  Alcotest.(check int) "add" 1 (M.Word.add m 50 48);
  Alcotest.(check int) "mul" (50 * 48 mod 97) (M.Word.mul m 50 48);
  Alcotest.(check int) "pow fermat" 1 (M.Word.pow m 5 96);
  let inv5 = M.Word.inv m 5 in
  Alcotest.(check int) "inv" 1 (M.Word.mul m 5 inv5);
  Alcotest.check_raises "inv non-unit" Division_by_zero (fun () ->
      ignore (M.Word.inv (M.Word.modulus 10) 4))

let test_big_mod () =
  let m = B.of_string "1000000007" in
  let a = B.of_string "123456789123456789" in
  let i = M.inv ~m a in
  Alcotest.(check bi) "inv works" B.one (M.mul ~m a i);
  (* Fermat's little theorem *)
  Alcotest.(check bi) "fermat" B.one (M.pow ~m a (B.sub m B.one))

let test_crt () =
  let x, modulus =
    M.crt
      [ (B.of_int 2, B.of_int 3); (B.of_int 3, B.of_int 5); (B.of_int 2, B.of_int 7) ]
  in
  Alcotest.(check bi) "sunzi" (B.of_int 23) x;
  Alcotest.(check bi) "modulus" (B.of_int 105) modulus

let test_primes_small () =
  let known = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47 ] in
  Alcotest.(check (list int)) "sieve" known (P.primes_below 48);
  Alcotest.(check bool) "1 not prime" false (P.is_prime 1);
  Alcotest.(check bool) "0 not prime" false (P.is_prime 0);
  Alcotest.(check bool) "2^31-1 prime" true (P.is_prime ((1 lsl 31) - 1));
  Alcotest.(check bool) "carmichael 561" false (P.is_prime 561);
  Alcotest.(check bool) "carmichael 41041" false (P.is_prime 41041);
  Alcotest.(check int) "next_prime 14" 17 (P.next_prime 14);
  Alcotest.(check int) "nth below" 97 (P.nth_prime_below 0 100);
  Alcotest.(check int) "nth below 1" 89 (P.nth_prime_below 1 100)

let test_miller_rabin_vs_sieve () =
  let sieve = P.primes_below 10_000 in
  let in_sieve = Hashtbl.create 1024 in
  List.iter (fun p -> Hashtbl.replace in_sieve p ()) sieve;
  for n = 0 to 9_999 do
    Alcotest.(check bool)
      (Printf.sprintf "is_prime %d" n)
      (Hashtbl.mem in_sieve n) (P.is_prime n)
  done

let test_random_prime () =
  let g = Prng.create 7 in
  for _ = 1 to 50 do
    let p = P.random_prime g ~bits:20 in
    Alcotest.(check bool) "prime" true (P.is_prime p);
    Alcotest.(check bool) "bits" true (p >= 1 lsl 19 && p < 1 lsl 20)
  done

let test_fingerprint_prime_bits () =
  let b = P.fingerprint_prime_bits ~n:8 ~k:8 ~epsilon:0.01 in
  Alcotest.(check bool) "in range" true (b >= 3 && b <= 30);
  let b_strict = P.fingerprint_prime_bits ~n:8 ~k:8 ~epsilon:0.0001 in
  Alcotest.(check bool) "stricter eps needs more bits" true (b_strict >= b)

(* The .mli contract: inv raises Division_by_zero exactly when
   gcd(x, m) <> 1 (zero and shared-factor residues included), and
   pow _ _ 0 = 1 for every base against any modulus, composite ones
   included. *)
let test_word_inv_pow_contract () =
  let m9 = M.Word.modulus 9 and m12 = M.Word.modulus 12 in
  let m7 = M.Word.modulus 7 in
  List.iter
    (fun (m, x) ->
      Alcotest.check_raises
        (Printf.sprintf "inv %d mod non-coprime" x)
        Division_by_zero
        (fun () -> ignore (M.Word.inv m x)))
    [ (m9, 0); (m9, 6); (m9, 3); (m12, 4); (m12, 10); (m7, 0) ];
  (* Invertible residues really invert, composite modulus included. *)
  List.iter
    (fun (m, x) ->
      Alcotest.(check int)
        (Printf.sprintf "x * inv x mod m = 1 (x=%d)" x)
        1
        (M.Word.mul m x (M.Word.inv m x)))
    [ (m7, 3); (m9, 2); (m12, 5); (m12, 11) ];
  Alcotest.(check int) "inv 3 mod 7" 5 (M.Word.inv m7 3);
  (* pow with exponent 0 is the empty product for every base. *)
  List.iter
    (fun b ->
      Alcotest.(check int)
        (Printf.sprintf "pow 12 %d 0" b)
        1
        (M.Word.pow m12 b 0))
    [ 0; 1; 5; 11 ];
  Alcotest.(check int) "pow composite" (5 * 5 * 5 mod 12)
    (M.Word.pow m12 5 3);
  (* Bignum flavour honors the same contract. *)
  let bm = B.of_int 12 in
  Alcotest.check_raises "big inv non-coprime" Division_by_zero (fun () ->
      ignore (M.inv ~m:bm (B.of_int 4)));
  Alcotest.(check bi) "big inv valid" B.one
    (M.mul ~m:bm (B.of_int 5) (M.inv ~m:bm (B.of_int 5)));
  Alcotest.(check bi) "big pow e=0" B.one
    (M.pow ~m:bm (B.of_int 7) B.zero)

let prop_word_mulmod_oracle (a, b) =
  let m = M.Word.modulus 1_000_003 in
  let r = M.Word.mul m (M.Word.reduce m a) (M.Word.reduce m b) in
  (* oracle via bigint *)
  let big =
    B.erem (B.mul (B.of_int a) (B.of_int b)) (B.of_int 1_000_003)
  in
  r = B.to_int big

let prop_crt_consistent (a, b) =
  let p1 = B.of_int 10007 and p2 = B.of_int 10009 in
  let r1 = B.erem a p1 and r2 = B.erem b p2 in
  let x, m = M.crt [ (r1, p1); (r2, p2) ] in
  B.equal (B.erem x p1) r1 && B.equal (B.erem x p2) r2
  && B.equal m (B.mul p1 p2)

(* rem_int is the allocation-free fast path the batched singularity
   filter leans on; it must agree with the general euclidean remainder
   for every sign and size, and reject out-of-range moduli. *)
let prop_rem_int (a, m_raw) =
  let m = 2 + (Stdlib.abs m_raw mod ((1 lsl 31) - 3)) in
  B.rem_int a m = B.to_int (B.erem a (B.of_int m))

let test_rem_int_edges () =
  List.iter
    (fun (x, m) ->
      Alcotest.(check int)
        (Printf.sprintf "rem_int %s %d" (B.to_string x) m)
        (B.to_int (B.erem x (B.of_int m)))
        (B.rem_int x m))
    [ (B.zero, 7); (B.of_int (-1), 2); (B.shift_left B.one 200, 1_000_003);
      (B.neg (B.shift_left B.one 200), 1_000_003);
      (B.of_int max_int, (1 lsl 31) - 1); (B.of_int min_int, (1 lsl 31) - 1) ];
  Alcotest.check_raises "modulus 1 rejected"
    (Invalid_argument "Bigint.rem_int: modulus must be in (1, 2^31)") (fun () ->
      ignore (B.rem_int B.one 1));
  Alcotest.check_raises "modulus 2^31 rejected"
    (Invalid_argument "Bigint.rem_int: modulus must be in (1, 2^31)") (fun () ->
      ignore (B.rem_int B.one (1 lsl 31)))

let test_prime_ladder () =
  Alcotest.(check int) "top of the ladder" (P.nth_prime_below 0 (1 lsl 30))
    (P.ladder 0);
  for i = 1 to 40 do
    let p = P.ladder i in
    Alcotest.(check int) (Printf.sprintf "ladder %d is the next prime down" i)
      (P.nth_prime_below 0 (P.ladder (i - 1))) p;
    Alcotest.(check bool) "above the floor" true
      (p > 1 lsl P.ladder_floor_bits)
  done;
  Alcotest.(check bool) "no primes cover nothing" false (P.ladder_exceeds 0 0);
  Alcotest.(check bool) "one prime covers 2^29" true (P.ladder_exceeds 1 29);
  Alcotest.(check bool) "one prime not 2^30" false (P.ladder_exceeds 1 30);
  Alcotest.(check bool) "two primes cover 2^58" true (P.ladder_exceeds 2 58)

let test_word_elim () =
  let module W = Commx_bigint.Modarith.Word in
  let m = W.modulus 101 in
  let run rows cols cells = W.elim m (Array.of_list cells) ~rows ~cols in
  Alcotest.(check (pair int int)) "0x0" (1, 0) (run 0 0 []);
  (* det [[1,2],[3,4]] = -2 = 99 mod 101 *)
  Alcotest.(check (pair int int)) "2x2" (99, 2) (run 2 2 [ 1; 2; 3; 4 ]);
  (* a leading zero pivot forces a row swap *)
  Alcotest.(check (pair int int)) "swap" (100, 2) (run 2 2 [ 0; 1; 1; 0 ]);
  Alcotest.(check (pair int int)) "singular" (0, 1) (run 2 2 [ 1; 2; 2; 4 ]);
  Alcotest.(check (pair int int)) "2x3 rank 2" (0, 2)
    (run 2 3 [ 0; 0; 5; 0; 7; 1 ]);
  Alcotest.check_raises "short buffer"
    (Invalid_argument "Modarith.Word.elim: bad dimensions") (fun () ->
      ignore (run 2 2 [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bigint"
    [ ( "bigint-unit",
        [ Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "string known values" `Quick test_string_known;
          Alcotest.test_case "string invalid" `Quick test_string_invalid;
          Alcotest.test_case "mul known values" `Quick test_mul_known;
          Alcotest.test_case "divmod known values" `Quick test_divmod_known;
          Alcotest.test_case "divmod add-back stress" `Quick
            test_divmod_addback_cases;
          Alcotest.test_case "divmod add-back exact witnesses" `Quick
            test_divmod_addback_exact;
          Alcotest.test_case "divmod normalization boundaries" `Quick
            test_divmod_normalization_boundaries;
          Alcotest.test_case "to_int boundaries" `Quick test_to_int_boundaries;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "shift" `Quick test_shift;
          Alcotest.test_case "gcd known" `Quick test_gcd_known;
          Alcotest.test_case "bit_length" `Quick test_bit_length;
          Alcotest.test_case "isqrt known" `Quick test_isqrt_known;
          Alcotest.test_case "euclidean division" `Quick test_ediv ] );
      ( "bigint-props",
        [ qtest "add commutative" arb_pair prop_add_comm;
          qtest "add associative" arb_triple prop_add_assoc;
          qtest "mul commutative" arb_pair prop_mul_comm;
          qtest "mul associative" arb_triple prop_mul_assoc;
          qtest "distributivity" arb_triple prop_distrib;
          qtest "additive inverse" arb_bigint prop_add_neg;
          qtest "sub then add" arb_pair prop_sub_add;
          qtest "karatsuba = schoolbook" arb_pair prop_mul_school_agrees;
          qtest "divmod invariant" arb_pair prop_divmod;
          qtest "divmod vs slow oracle" ~count:300 arb_pair
            prop_divmod_vs_slow_oracle;
          qtest "decimal roundtrip" arb_bigint prop_string_roundtrip;
          qtest "compare antisymmetric" arb_pair prop_compare_antisym;
          qtest "order preserved by positive mul" arb_pair
            prop_compare_mul_positive;
          qtest "gcd divides both" arb_pair prop_gcd_divides;
          qtest "bezout identity" arb_pair prop_gcdext;
          qtest "isqrt bracket" arb_bigint prop_isqrt;
          qtest "shift = mul by power of two" arb_bigint prop_shift_is_pow2;
          qtest "bit_length under shift" arb_bigint prop_bit_length_shift;
          qtest "int oracle" QCheck.(pair small_int small_int)
            prop_int64_oracle ] );
      ( "rational",
        [ Alcotest.test_case "canonical form" `Quick test_rational_canonical;
          Alcotest.test_case "arithmetic" `Quick test_rational_arith;
          Alcotest.test_case "comparisons" `Quick test_rational_compare;
          qtest "field division" (QCheck.pair arb_rational arb_rational)
            prop_rational_field;
          qtest "rational add assoc"
            (QCheck.triple arb_rational arb_rational arb_rational)
            prop_rational_add_assoc;
          qtest "rational string roundtrip" arb_rational prop_rational_string;
          qtest "den positive" arb_rational prop_rational_den_positive;
          qtest "fully reduced" arb_rational prop_rational_reduced ] );
      ( "modular",
        [ Alcotest.test_case "word mod basics" `Quick test_word_mod_basics;
          Alcotest.test_case "word inv/pow contract" `Quick
            test_word_inv_pow_contract;
          Alcotest.test_case "bignum mod" `Quick test_big_mod;
          Alcotest.test_case "crt sunzi" `Quick test_crt;
          Alcotest.test_case "primes small" `Quick test_primes_small;
          Alcotest.test_case "miller-rabin vs sieve" `Quick
            test_miller_rabin_vs_sieve;
          Alcotest.test_case "random primes" `Quick test_random_prime;
          Alcotest.test_case "fingerprint prime sizing" `Quick
            test_fingerprint_prime_bits;
          qtest "word mulmod oracle"
            QCheck.(pair int int)
            prop_word_mulmod_oracle;
          qtest "crt consistency" arb_pair prop_crt_consistent;
          Alcotest.test_case "prime ladder" `Quick test_prime_ladder;
          Alcotest.test_case "word elimination" `Quick test_word_elim;
          Alcotest.test_case "rem_int edges" `Quick test_rem_int_edges;
          qtest "rem_int vs erem"
            QCheck.(pair arb_bigint int)
            prop_rem_int ] ) ]
