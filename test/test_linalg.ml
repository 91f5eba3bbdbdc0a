(* Tests for the exact linear-algebra layer: structural matrix
   operations, determinants (Bareiss vs Laplace vs field elimination vs
   CRT), rank, solve/nullspace/inverse, LUP, Gram-Schmidt QR structure,
   subspace algebra, and the floating SVD substrate. *)

module B = Commx_bigint.Bigint
module Q = Commx_bigint.Rational
module Zm = Commx_linalg.Zmatrix
module Qm = Commx_linalg.Qmatrix
module Lup = Commx_linalg.Lup
module Gram = Commx_linalg.Gram
module Svd = Commx_linalg.Svd
module Sub = Commx_linalg.Subspace
module Prng = Commx_util.Prng

let bi = Alcotest.testable B.pp B.equal
let rat = Alcotest.testable Q.pp Q.equal

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Generators: small integer matrices as int array array              *)
(* ------------------------------------------------------------------ *)

let gen_dim = QCheck.Gen.int_range 1 5

let gen_int_matrix ?(lo = -9) ?(hi = 9) rows cols =
  QCheck.Gen.(
    array_size (return rows)
      (array_size (return cols) (int_range lo hi)))

let gen_square =
  QCheck.Gen.(gen_dim >>= fun n -> gen_int_matrix n n)

let gen_rect =
  QCheck.Gen.(
    gen_dim >>= fun r ->
    gen_dim >>= fun c -> gen_int_matrix r c)

let print_mat a =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun row ->
            String.concat " " (Array.to_list (Array.map string_of_int row)))
          a))

let print_mat_vec v =
  String.concat " " (Array.to_list (Array.map string_of_int v))

let arb_square = QCheck.make ~print:print_mat gen_square
let arb_rect = QCheck.make ~print:print_mat gen_rect

let zm_of a = Zm.of_int_array2 a
let qm_of a = Qm.of_int_array2 a

(* ------------------------------------------------------------------ *)
(* Structural operations                                               *)
(* ------------------------------------------------------------------ *)

let test_identity_mul () =
  let a = qm_of [| [| 1; 2 |]; [| 3; 4 |] |] in
  Alcotest.(check bool) "I*A = A" true (Qm.equal a (Qm.mul (Qm.identity 2) a));
  Alcotest.(check bool) "A*I = A" true (Qm.equal a (Qm.mul a (Qm.identity 2)))

let test_mul_known () =
  let a = qm_of [| [| 1; 2 |]; [| 3; 4 |] |] in
  let b = qm_of [| [| 5; 6 |]; [| 7; 8 |] |] in
  let expected = qm_of [| [| 19; 22 |]; [| 43; 50 |] |] in
  Alcotest.(check bool) "2x2 product" true (Qm.equal expected (Qm.mul a b))

let test_hcat_vcat () =
  let a = qm_of [| [| 1 |]; [| 2 |] |] in
  let b = qm_of [| [| 3 |]; [| 4 |] |] in
  let h = Qm.hcat a b in
  Alcotest.(check int) "hcat cols" 2 (Qm.cols h);
  Alcotest.(check rat) "hcat entry" (Q.of_int 3) (Qm.get h 0 1);
  let v = Qm.vcat a b in
  Alcotest.(check int) "vcat rows" 4 (Qm.rows v);
  Alcotest.(check rat) "vcat entry" (Q.of_int 4) (Qm.get v 3 0)

let prop_transpose_involution a =
  let m = qm_of a in
  Qm.equal m (Qm.transpose (Qm.transpose m))

let prop_mul_transpose (a, b) =
  (* (AB)^T = B^T A^T for square same-dim *)
  let n = min (Array.length a) (Array.length b) in
  let cut m = Array.map (fun r -> Array.sub r 0 n) (Array.sub m 0 n) in
  let a = qm_of (cut a) and b = qm_of (cut b) in
  Qm.equal
    (Qm.transpose (Qm.mul a b))
    (Qm.mul (Qm.transpose b) (Qm.transpose a))

let prop_add_sub a =
  let m = qm_of a in
  Qm.is_zero_matrix (Qm.sub m m) && Qm.equal m (Qm.add m (Qm.zero (Qm.rows m) (Qm.cols m)))

let prop_permute_rows_roundtrip a =
  let m = qm_of a in
  let n = Qm.rows m in
  let perm = Array.init n (fun i -> (i + 1) mod n) in
  let inv = Array.make n 0 in
  Array.iteri (fun i p -> inv.(p) <- i) perm;
  Qm.equal m (Qm.permute_rows (Qm.permute_rows m perm) inv)

(* ------------------------------------------------------------------ *)
(* Determinants                                                        *)
(* ------------------------------------------------------------------ *)

let test_det_known () =
  Alcotest.(check bi) "det I3" B.one (Zm.det (Zm.of_int_array2
    [| [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] |]));
  Alcotest.(check bi) "det 2x2" (B.of_int (-2))
    (Zm.det (Zm.of_int_array2 [| [| 1; 2 |]; [| 3; 4 |] |]));
  (* Vandermonde on 2,3,5,7: prod of differences *)
  let vander = Zm.of_int_fn 4 4 (fun i j ->
      let xs = [| 2; 3; 5; 7 |] in
      int_of_float (Float.pow (float_of_int xs.(i)) (float_of_int j)))
  in
  (* (3-2)(5-2)(7-2)(5-3)(7-3)(7-5) = 1*3*5*2*4*2 = 240 *)
  Alcotest.(check bi) "vandermonde" (B.of_int 240) (Zm.det vander);
  Alcotest.(check bi) "det empty" B.one (Zm.det (Zm.zero 0 0));
  Alcotest.(check bi) "det singular" B.zero
    (Zm.det (Zm.of_int_array2 [| [| 1; 2 |]; [| 2; 4 |] |]))

let prop_bareiss_vs_laplace a =
  let m = zm_of a in
  B.equal (Zm.det_bareiss m) (Zm.det_laplace m)

let prop_bareiss_vs_field a =
  let m = zm_of a in
  let dq = Qm.det (qm_of a) in
  Q.equal dq (Q.of_bigint (Zm.det_bareiss m))

let prop_crt_vs_bareiss a =
  let m = zm_of a in
  B.equal (Zm.det m) (Zm.det_bareiss m)

let prop_det_transpose a =
  let m = zm_of a in
  B.equal (Zm.det m) (Zm.det (Zm.transpose m))

let prop_det_multiplicative (a, b) =
  let n = min (Array.length a) (Array.length b) in
  let cut m = Array.map (fun r -> Array.sub r 0 n) (Array.sub m 0 n) in
  let ma = zm_of (cut a) and mb = zm_of (cut b) in
  B.equal (Zm.det (Zm.mul ma mb)) (B.mul (Zm.det ma) (Zm.det mb))

let prop_det_row_swap_negates a =
  let m = zm_of a in
  let n = Zm.rows m in
  n < 2
  ||
  let m' = Zm.copy m in
  Zm.swap_rows m' 0 1;
  B.equal (Zm.det m') (B.neg (Zm.det m))

let prop_hadamard a =
  let m = zm_of a in
  B.compare (B.abs (Zm.det m)) (Zm.hadamard_bound m) <= 0

let test_det_big_entries () =
  (* Entries far beyond 64-bit: exercise bignum paths end to end. *)
  let big = B.pow (B.of_int 10) 30 in
  let m =
    Zm.init 3 3 (fun i j ->
        B.add (B.mul_int big ((i * 3) + j + 1)) (B.of_int (i + j)))
  in
  Alcotest.(check bi) "crt matches bareiss on huge entries"
    (Zm.det_bareiss m) (Zm.det m)

(* ------------------------------------------------------------------ *)
(* Rank / solve / nullspace / inverse                                  *)
(* ------------------------------------------------------------------ *)

let prop_rank_bounds a =
  let m = qm_of a in
  let r = Qm.rank m in
  r >= 0 && r <= min (Qm.rows m) (Qm.cols m)

let prop_rank_transpose a =
  let m = qm_of a in
  Qm.rank m = Qm.rank (Qm.transpose m)

let prop_rank_product (a, b) =
  let n = min (Array.length a) (Array.length b) in
  let cut m = Array.map (fun r -> Array.sub r 0 n) (Array.sub m 0 n) in
  let ma = qm_of (cut a) and mb = qm_of (cut b) in
  Qm.rank (Qm.mul ma mb) <= min (Qm.rank ma) (Qm.rank mb)

let prop_rank_self_augment a =
  let m = qm_of a in
  Qm.rank (Qm.hcat m m) = Qm.rank m

let prop_rref_idempotent a =
  let m = qm_of a in
  let r = Qm.rref m in
  Qm.equal r (Qm.rref r)

let prop_nullspace_kills a =
  let m = qm_of a in
  let null = Qm.nullspace m in
  List.for_all
    (fun v -> Array.for_all Q.is_zero (Qm.mul_vec m v))
    null
  && List.length null = Qm.cols m - Qm.rank m

let prop_solve_reconstructs (a, bv) =
  let m = qm_of a in
  let b =
    Array.init (Qm.rows m) (fun i ->
        Q.of_int (if i < Array.length bv then bv.(i) else 0))
  in
  match Qm.solve m b with
  | None ->
      (* must genuinely be inconsistent: rank criterion *)
      let bcol = Qm.init (Qm.rows m) 1 (fun i _ -> b.(i)) in
      Qm.rank (Qm.hcat m bcol) > Qm.rank m
  | Some x ->
      let ax = Qm.mul_vec m x in
      Array.for_all2 Q.equal ax b

let prop_inverse a =
  let m = qm_of a in
  if not (Qm.is_square m) then true
  else
    match Qm.inverse m with
    | None -> Qm.is_singular m
    | Some inv ->
        Qm.equal (Qm.mul m inv) (Qm.identity (Qm.rows m))
        && Qm.equal (Qm.mul inv m) (Qm.identity (Qm.rows m))

let prop_singular_iff_det_zero a =
  let m = zm_of a in
  Zm.is_singular m = (Zm.rank m < Zm.rows m)

(* The batch must agree verdict-for-verdict with the scalar test,
   including on matrices engineered to be singular (where the first
   prime cannot decide and the ladder runs to its Hadamard
   certificate). *)
let prop_singular_batch_agrees seed =
  let g = Prng.create seed in
  let ms =
    Array.init (Prng.int g 6) (fun _ ->
        let n = 1 + Prng.int g 5 in
        match Prng.int g 3 with
        | 0 -> Zm.random_of_rank g ~rows:n ~cols:n ~rank:(Prng.int g n)
        | 1 -> Zm.random_of_rank g ~rows:n ~cols:n ~rank:n
        | _ -> Zm.random g ~rows:n ~cols:n ~bits:(1 + Prng.int g 40))
  in
  Zm.singular_batch ms = Array.map Zm.is_singular ms

let prop_rank_mod_p_lower a =
  let m = zm_of a in
  Zm.rank_mod_p m 1_000_003 <= Zm.rank m

(* Every exact answer runs on word residues modulo a fixed prime ladder
   and must not trust its first primes: scaling by the top ladder
   primes makes every residue vanish there. *)
let q_rank m = Qm.rank (Zm.to_qmatrix m)

let check_exact name m =
  Alcotest.(check int) (name ^ ": rank = Q rank") (q_rank m) (Zm.rank m);
  if Zm.is_square m then begin
    let d = Zm.det_bareiss m in
    Alcotest.(check bi) (name ^ ": det = bareiss") d (Zm.det m);
    let d', r' = Zm.det_rank m in
    Alcotest.(check bi) (name ^ ": det_rank det") d d';
    Alcotest.(check int) (name ^ ": det_rank rank") (q_rank m) r';
    Alcotest.(check bool) (name ^ ": is_singular") (B.is_zero d)
      (Zm.is_singular m)
  end

let test_ladder_scaled () =
  let p0 = B.of_int (Commx_bigint.Primes.ladder 0) in
  let p01 = B.mul p0 (B.of_int (Commx_bigint.Primes.ladder 1)) in
  let z = Zm.of_int_array2 in
  let cases =
    [ ("p0 * 2x2", Zm.scale p0 (z [| [| 1; 2 |]; [| 3; 4 |] |]), 2);
      ( "p0 p1 * 3x3",
        Zm.scale p01 (z [| [| 2; 0; 1 |]; [| 1; 3; 2 |]; [| 1; 1; 2 |] |]),
        3 );
      ("p0 * singular", Zm.scale p0 (z [| [| 1; 2 |]; [| 2; 4 |] |]), 1);
      ("p0 below a zero row", Zm.scale p0 (z [| [| 0; 0 |]; [| 1; 0 |] |]), 1);
      ( "p0 p1 * 2x3",
        Zm.scale p01 (z [| [| 1; 0; 5 |]; [| 0; 0; 7 |] |]),
        2 ) ]
  in
  List.iter
    (fun (name, m, rank) ->
      Alcotest.(check int) (name ^ ": rank") rank (Zm.rank m);
      check_exact name m)
    cases

let test_empty_and_zero_rows () =
  Alcotest.(check int) "0x0 rank" 0 (Zm.rank (Zm.zero 0 0));
  Alcotest.(check bi) "0x0 det" B.one (Zm.det (Zm.zero 0 0));
  Alcotest.(check bool) "0x0 nonsingular" false (Zm.is_singular (Zm.zero 0 0));
  Alcotest.(check int) "0x4 rank" 0 (Zm.rank (Zm.zero 0 4));
  Alcotest.(check int) "3x0 rank" 0 (Zm.rank (Zm.zero 3 0));
  Alcotest.(check int) "3x3 zero rank" 0 (Zm.rank (Zm.zero 3 3));
  Alcotest.(check bool) "3x3 zero singular" true (Zm.is_singular (Zm.zero 3 3));
  let m = Zm.of_int_array2 [| [| 0; 0; 0 |]; [| 1; 2; 3 |]; [| 0; 0; 0 |] |] in
  Alcotest.(check int) "zero rows rank" 1 (Zm.rank m);
  Alcotest.(check bool) "zero rows bound >= 1" true
    (B.compare (Zm.hadamard_bound m) B.one >= 0);
  List.iter
    (fun (name, m) -> check_exact name m)
    [ ("0x0", Zm.zero 0 0); ("0x4", Zm.zero 0 4); ("3x0", Zm.zero 3 0);
      ("3x3 zero", Zm.zero 3 3); ("zero rows", m) ]

(* Residues mod 1_000_003, pinned from the functor-based GF(p)
   elimination the word kernel replaced. *)
let test_mod_p_pinned () =
  let p = 1_000_003 in
  let a =
    Zm.of_int_fn 5 5 (fun i j ->
        let x = (i * 7) + (j * 13) + 3 in
        (x * x * x mod 1999) - 1000)
  in
  let big = B.pow (B.of_int 10) 20 in
  let r0 = Array.init 6 (fun j -> B.add big (B.of_int ((j * j) - 7))) in
  let r1 = Array.init 6 (fun j -> B.sub (B.of_int (3 * j)) big) in
  let b =
    Zm.of_rows
      [ r0; r1; Array.map2 B.add r0 r1;
        Array.map2 (fun x y -> B.sub (B.mul_int x 2) y) r0 r1 ]
  in
  let c = Zm.of_int_array2 [| [| p; 2; 3 |]; [| 4; 5 * p; 6 |]; [| 7; 8; 9 |] |] in
  let d = Zm.of_int_array2 [| [| p; 2 * p |]; [| 3; 4 |] |] in
  Alcotest.(check int) "det A" 706044 (Zm.det_mod_p a p);
  Alcotest.(check int) "rank A" 5 (Zm.rank_mod_p a p);
  Alcotest.(check int) "rank B" 2 (Zm.rank_mod_p b p);
  Alcotest.(check int) "det C" 108 (Zm.det_mod_p c p);
  Alcotest.(check int) "rank C" 3 (Zm.rank_mod_p c p);
  Alcotest.(check int) "det D" 0 (Zm.det_mod_p d p);
  Alcotest.(check int) "rank D" 1 (Zm.rank_mod_p d p);
  Alcotest.(check int) "rank D over Q" 2 (Zm.rank d)

let test_solve_known () =
  (* x + y = 3, x - y = 1  =>  x = 2, y = 1 *)
  let a = qm_of [| [| 1; 1 |]; [| 1; -1 |] |] in
  (match Qm.solve a [| Q.of_int 3; Q.of_int 1 |] with
  | None -> Alcotest.fail "expected solution"
  | Some x ->
      Alcotest.(check rat) "x" (Q.of_int 2) x.(0);
      Alcotest.(check rat) "y" (Q.of_int 1) x.(1));
  (* inconsistent *)
  let a2 = qm_of [| [| 1; 1 |]; [| 2; 2 |] |] in
  Alcotest.(check bool) "inconsistent" false
    (Qm.solvable a2 [| Q.of_int 1; Q.of_int 3 |]);
  (* underdetermined but consistent *)
  Alcotest.(check bool) "underdetermined" true
    (Qm.solvable a2 [| Q.of_int 1; Q.of_int 2 |])

(* ------------------------------------------------------------------ *)
(* LUP                                                                 *)
(* ------------------------------------------------------------------ *)

let prop_lup_verify a =
  let m = qm_of a in
  if not (Qm.is_square m) then true
  else
    let d = Lup.decompose m in
    Lup.verify m d

let prop_lup_det a =
  let m = qm_of a in
  if not (Qm.is_square m) then true
  else
    let d = Lup.decompose m in
    Q.equal (Lup.det d) (Qm.det m)

let test_permutation_sign () =
  Alcotest.(check int) "id" 1 (Lup.sign_of_permutation [| 0; 1; 2 |]);
  Alcotest.(check int) "swap" (-1) (Lup.sign_of_permutation [| 1; 0; 2 |]);
  Alcotest.(check int) "3cycle" 1 (Lup.sign_of_permutation [| 1; 2; 0 |]);
  Alcotest.(check int) "4cycle" (-1) (Lup.sign_of_permutation [| 1; 2; 3; 0 |])

let test_lup_singular () =
  let m = qm_of [| [| 1; 2; 3 |]; [| 2; 4; 6 |]; [| 1; 1; 1 |] |] in
  let d = Lup.decompose m in
  Alcotest.(check bool) "verifies on singular input" true (Lup.verify m d);
  Alcotest.(check rat) "det zero" Q.zero (Lup.det d)

(* ------------------------------------------------------------------ *)
(* Gram-Schmidt QR structure                                           *)
(* ------------------------------------------------------------------ *)

let prop_gram_verify a =
  let m = qm_of a in
  let d = Gram.decompose m in
  Gram.verify m d

let prop_gram_rank a =
  let m = qm_of a in
  Gram.rank_from_q (Gram.decompose m) = Qm.rank m

(* ------------------------------------------------------------------ *)
(* Subspaces                                                           *)
(* ------------------------------------------------------------------ *)

let qvec l = Array.of_list (List.map Q.of_int l)

let test_subspace_basics () =
  let s = Sub.of_vectors 3 [ qvec [ 1; 0; 0 ]; qvec [ 0; 1; 0 ]; qvec [ 1; 1; 0 ] ] in
  Alcotest.(check int) "dim" 2 (Sub.dim s);
  Alcotest.(check bool) "member" true (Sub.mem (qvec [ 5; -3; 0 ]) s);
  Alcotest.(check bool) "non-member" false (Sub.mem (qvec [ 0; 0; 1 ]) s);
  Alcotest.(check bool) "zero vec member" true (Sub.mem (qvec [ 0; 0; 0 ]) s);
  Alcotest.(check bool) "not everything" false (Sub.spans_everything s);
  Alcotest.(check bool) "full" true (Sub.spans_everything (Sub.full_space 3))

let test_subspace_intersect () =
  (* xy-plane meets yz-plane in the y-axis *)
  let xy = Sub.of_vectors 3 [ qvec [ 1; 0; 0 ]; qvec [ 0; 1; 0 ] ] in
  let yz = Sub.of_vectors 3 [ qvec [ 0; 1; 0 ]; qvec [ 0; 0; 1 ] ] in
  let i = Sub.intersect xy yz in
  Alcotest.(check int) "dim 1" 1 (Sub.dim i);
  Alcotest.(check bool) "y-axis" true (Sub.mem (qvec [ 0; 7; 0 ]) i);
  (* intersect with zero space *)
  let z = Sub.intersect xy (Sub.zero_space 3) in
  Alcotest.(check int) "zero" 0 (Sub.dim z)

let test_subspace_project () =
  let s = Sub.of_vectors 3 [ qvec [ 1; 2; 3 ] ] in
  let p = Sub.project s [| 1; 2 |] in
  Alcotest.(check int) "ambient" 2 (Sub.ambient_dim p);
  Alcotest.(check bool) "projected vec" true (Sub.mem (qvec [ 2; 3 ]) p)

let prop_subspace_dim_formula (a, b) =
  (* dim(U+V) + dim(U ∩ V) = dim U + dim V *)
  let n = 4 in
  let cut m =
    Array.to_list
      (Array.map
         (fun r -> Array.map Q.of_int (Array.sub r 0 (min n (Array.length r))))
         (Array.sub m 0 (min 3 (Array.length m))))
  in
  let pad v = Array.init n (fun i -> if i < Array.length v then v.(i) else Q.zero) in
  let va = List.map pad (cut a) and vb = List.map pad (cut b) in
  let u = Sub.of_vectors n va and v = Sub.of_vectors n vb in
  Sub.dim (Sub.add u v) + Sub.dim (Sub.intersect u v) = Sub.dim u + Sub.dim v

let prop_subspace_mem_closed a =
  (* sums of basis vectors stay inside *)
  let m = qm_of a in
  let s = Sub.of_matrix_rows m in
  match Sub.basis s with
  | [] -> true
  | first :: rest ->
      let sum =
        List.fold_left (fun acc v -> Array.map2 Q.add acc v) first rest
      in
      Sub.mem sum s

let prop_column_space_contains_products a =
  (* A x is always in the column space of A *)
  let m = qm_of a in
  let s = Sub.of_matrix_columns m in
  let x = Array.init (Qm.cols m) (fun i -> Q.of_int (i + 1)) in
  Sub.mem (Qm.mul_vec m x) s

(* ------------------------------------------------------------------ *)
(* Smith normal form                                                   *)
(* ------------------------------------------------------------------ *)

module Smith = Commx_linalg.Smith
module Charpoly = Commx_linalg.Charpoly

let test_smith_known () =
  (* classic example: [[2,4,4],[-6,6,12],[10,-4,-16]] has SNF
     diag(2, 6, 12) *)
  let m = Zm.of_int_array2 [| [| 2; 4; 4 |]; [| -6; 6; 12 |]; [| 10; -4; -16 |] |] in
  Alcotest.(check (list bi)) "invariant factors"
    [ B.of_int 2; B.of_int 6; B.of_int 12 ]
    (Smith.invariant_factors m);
  Alcotest.(check bi) "det abs" (B.of_int 144) (Smith.det_abs m);
  Alcotest.(check bi) "matches bareiss" (B.abs (Zm.det m)) (Smith.det_abs m);
  (* identity *)
  Alcotest.(check (list bi)) "identity"
    [ B.one; B.one; B.one ]
    (Smith.invariant_factors (Zm.identity 3))

let prop_smith_rank a =
  let m = zm_of a in
  Smith.rank m = Zm.rank m

let prop_smith_det_abs a =
  let m = zm_of a in
  not (Zm.is_square m) || B.equal (Smith.det_abs m) (B.abs (Zm.det m))

let prop_smith_chain a =
  let m = zm_of a in
  Smith.divisibility_chain_ok (Smith.invariant_factors m)

let prop_smith_permutation_invariant a =
  let m = zm_of a in
  let n = Zm.rows m in
  if n < 2 then true
  else begin
    let m' = Zm.copy m in
    Zm.swap_rows m' 0 (n - 1);
    Zm.swap_cols m' 0 (min 1 (Zm.cols m' - 1));
    Smith.invariant_factors m = Smith.invariant_factors m'
  end

(* ------------------------------------------------------------------ *)
(* Characteristic polynomial                                           *)
(* ------------------------------------------------------------------ *)

let test_charpoly_known () =
  (* [[1,2],[3,4]]: x^2 - 5x - 2 *)
  let m = qm_of [| [| 1; 2 |]; [| 3; 4 |] |] in
  let c = Charpoly.charpoly m in
  Alcotest.(check rat) "c0" (Q.of_int (-2)) c.(0);
  Alcotest.(check rat) "c1" (Q.of_int (-5)) c.(1);
  Alcotest.(check rat) "c2" Q.one c.(2);
  Alcotest.(check rat) "det" (Q.of_int (-2)) (Charpoly.det m);
  Alcotest.(check rat) "trace" (Q.of_int 5) (Charpoly.trace m);
  (* empty matrix: charpoly = 1 *)
  let c0 = Charpoly.charpoly (Qm.zero 0 0) in
  Alcotest.(check int) "empty len" 1 (Array.length c0)

let prop_charpoly_det a =
  let m = qm_of a in
  not (Qm.is_square m) || Q.equal (Charpoly.det m) (Qm.det m)

let prop_charpoly_integer_coeffs a =
  let m = zm_of a in
  if not (Zm.is_square m) then true
  else
    (* charpoly_z raises on non-integer coefficients *)
    Array.length (Charpoly.charpoly_z m) = Zm.rows m + 1

let prop_cayley_hamilton a =
  (* p(M) = 0 *)
  let m = qm_of a in
  if not (Qm.is_square m) then true
  else begin
    let n = Qm.rows m in
    let c = Charpoly.charpoly m in
    let acc = ref (Qm.zero n n) in
    let power = ref (Qm.identity n) in
    for i = 0 to n do
      acc := Qm.add !acc (Qm.scale c.(i) !power);
      if i < n then power := Qm.mul !power m
    done;
    Qm.is_zero_matrix !acc
  end

let prop_zero_singular_values_is_corank a =
  let m = zm_of a in
  Charpoly.zero_singular_values m = Zm.cols m - Zm.rank m

let prop_gram_charpoly_signs a =
  (* M^T M is PSD: its nonzero eigenvalues are positive, so the
     characteristic polynomial evaluated at any negative x has sign
     (-1)^n... simpler invariant: eval at 0 is the constant coeff and
     equals (+-) det(M^T M) which is det(M)^2 >= 0 for square M. *)
  let m = zm_of a in
  if not (Zm.is_square m) then true
  else begin
    let c = Charpoly.gram_charpoly m in
    let n = Zm.rows m in
    let d = Zm.det m in
    let expected =
      let d2 = B.mul d d in
      if n mod 2 = 0 then d2 else B.neg d2
    in
    B.equal c.(0) expected
  end

(* ------------------------------------------------------------------ *)
(* Polynomials and Sturm sequences                                     *)
(* ------------------------------------------------------------------ *)

module Poly = Commx_linalg.Poly

let qp l = Poly.of_int_coeffs (Array.of_list l)

let test_poly_arith () =
  (* (x + 1)(x - 1) = x^2 - 1 *)
  let a = qp [ 1; 1 ] and b = qp [ -1; 1 ] in
  Alcotest.(check bool) "product" true
    (Poly.equal (Poly.mul a b) (qp [ -1; 0; 1 ]));
  Alcotest.(check int) "degree" 2 (Poly.degree (Poly.mul a b));
  Alcotest.(check bool) "add" true
    (Poly.equal (Poly.add a b) (qp [ 0; 2 ]));
  Alcotest.(check bool) "sub self" true (Poly.is_zero (Poly.sub a a));
  Alcotest.(check rat) "eval" (Q.of_int 8) (Poly.eval (qp [ -1; 0; 1 ]) (Q.of_int 3))

let test_poly_divmod () =
  (* x^3 - 2x + 5 divided by x - 3 *)
  let a = qp [ 5; -2; 0; 1 ] and b = qp [ -3; 1 ] in
  let quot, rem = Poly.divmod a b in
  Alcotest.(check bool) "reconstruct" true
    (Poly.equal a (Poly.add (Poly.mul quot b) rem));
  Alcotest.(check int) "rem degree" 0 (Poly.degree rem);
  (* remainder theorem: rem = a(3) *)
  Alcotest.(check rat) "remainder theorem" (Poly.eval a (Q.of_int 3))
    (Poly.eval rem Q.zero)

let gen_poly =
  QCheck.Gen.(
    list_size (int_range 1 7) (int_range (-5) 5) >>= fun l ->
    return (Array.of_list l))

let arb_poly =
  QCheck.make
    ~print:(fun a ->
      String.concat ";" (Array.to_list (Array.map string_of_int a)))
    gen_poly

let prop_poly_divmod_invariant (a, b) =
  let pa = Poly.of_int_coeffs a and pb = Poly.of_int_coeffs b in
  Poly.is_zero pb
  ||
  let quot, rem = Poly.divmod pa pb in
  Poly.equal pa (Poly.add (Poly.mul quot pb) rem)
  && (Poly.is_zero rem || Poly.degree rem < Poly.degree pb)

let prop_poly_gcd_divides (a, b) =
  let pa = Poly.of_int_coeffs a and pb = Poly.of_int_coeffs b in
  let g = Poly.gcd pa pb in
  if Poly.is_zero g then Poly.is_zero pa && Poly.is_zero pb
  else
    Poly.is_zero (Poly.rem pa g) && Poly.is_zero (Poly.rem pb g)

let prop_poly_derivative_linear (a, b) =
  let pa = Poly.of_int_coeffs a and pb = Poly.of_int_coeffs b in
  Poly.equal
    (Poly.derivative (Poly.add pa pb))
    (Poly.add (Poly.derivative pa) (Poly.derivative pb))

let test_sturm_known () =
  (* (x-1)(x-2)(x-4) = x^3 -7x^2 +14x - 8: roots 1, 2, 4 *)
  let p = qp [ -8; 14; -7; 1 ] in
  Alcotest.(check int) "(0,3]" 2
    (Poly.count_roots_in p ~lo:Q.zero ~hi:(Q.of_int 3));
  Alcotest.(check int) "(0,10]" 3 (Poly.count_positive_roots p);
  Alcotest.(check int) "(2,4]" 1
    (Poly.count_roots_in p ~lo:(Q.of_int 2) ~hi:(Q.of_int 4));
  (* x^2 + 1: no real roots *)
  Alcotest.(check int) "complex" 0 (Poly.count_positive_roots (qp [ 1; 0; 1 ]));
  (* repeated roots counted once: (x-1)^2 *)
  Alcotest.(check int) "repeated once" 1
    (Poly.count_positive_roots (qp [ 1; -2; 1 ]))

let prop_sturm_vs_eval_signs a =
  (* if p(lo) and p(hi) have strict opposite signs, at least one root
     lies between *)
  let p = Poly.of_int_coeffs a in
  if Poly.degree p < 1 then true
  else begin
    let lo = Q.of_int (-10) and hi = Q.of_int 10 in
    let slo = Q.sign (Poly.eval p lo) and shi = Q.sign (Poly.eval p hi) in
    if slo * shi >= 0 then true
    else Poly.count_roots_in p ~lo ~hi >= 1
  end

let test_distinct_singular_values () =
  (* diag(3, 3, 5): singular values {3, 3, 5} -> 2 distinct nonzero *)
  let m = Zm.of_int_array2 [| [| 3; 0; 0 |]; [| 0; 3; 0 |]; [| 0; 0; 5 |] |] in
  Alcotest.(check int) "diag" 2 (Poly.distinct_singular_value_count m);
  (* rank-deficient: diag(2, 0) -> 1 distinct nonzero *)
  let m2 = Zm.of_int_array2 [| [| 2; 0 |]; [| 0; 0 |] |] in
  Alcotest.(check int) "deficient" 1 (Poly.distinct_singular_value_count m2);
  (* localization: sigma^2 = 9 lies in (8, 10], sigma^2 = 25 not *)
  Alcotest.(check int) "interval" 1
    (Poly.singular_values_in m ~lo:(Q.of_int 8) ~hi:(Q.of_int 10))

let prop_distinct_sigma_bounds a =
  let m = zm_of a in
  let d = Poly.distinct_singular_value_count m in
  d >= 0 && d <= Zm.rank m
  && (Zm.rank m = 0) = (d = 0)

let prop_sigma_count_matches_float a =
  (* distinct nonzero singular values agree with the float SVD up to
     numeric clustering: exact count <= float nonzero count *)
  let m = zm_of a in
  let exact = Poly.distinct_singular_value_count m in
  let s = Svd.singular_values (Array.map (Array.map float_of_int) a) in
  let nonzero = Array.fold_left (fun acc x -> if x > 1e-9 then acc + 1 else acc) 0 s in
  exact <= nonzero

(* ------------------------------------------------------------------ *)
(* Rank-prescribed workloads                                           *)
(* ------------------------------------------------------------------ *)

let prop_random_of_rank_exact seed =
  let g = Prng.create seed in
  let nr = 2 + Prng.int g 4 and nc = 2 + Prng.int g 4 in
  let target = Prng.int g (min nr nc + 1) in
  let m = Zm.random_of_rank g ~rows:nr ~cols:nc ~rank:target in
  Zm.rank m = target

(* ------------------------------------------------------------------ *)
(* SVD substrate                                                       *)
(* ------------------------------------------------------------------ *)

let prop_svd_reconstructs a =
  let f = Array.map (Array.map float_of_int) a in
  let d = Svd.decompose f in
  Svd.max_abs_diff f (Svd.reconstruct d) < 1e-6

let prop_svd_rank_agrees a =
  let m = qm_of a in
  let f = Array.map (Array.map float_of_int) a in
  Svd.numeric_rank f = Qm.rank m

let prop_svd_descending a =
  let f = Array.map (Array.map float_of_int) a in
  let s = Svd.singular_values f in
  let ok = ref true in
  for i = 0 to Array.length s - 2 do
    if s.(i) < s.(i + 1) -. 1e-12 then ok := false
  done;
  !ok && Array.for_all (fun x -> x >= -1e-12) s

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "linalg"
    [ ( "structure",
        [ Alcotest.test_case "identity mul" `Quick test_identity_mul;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "hcat vcat" `Quick test_hcat_vcat;
          qtest "transpose involution" arb_rect prop_transpose_involution;
          qtest "(AB)^T = B^T A^T" (QCheck.pair arb_square arb_square)
            prop_mul_transpose;
          qtest "add/sub" arb_rect prop_add_sub;
          qtest "permute rows roundtrip" arb_rect prop_permute_rows_roundtrip
        ] );
      ( "determinant",
        [ Alcotest.test_case "known values" `Quick test_det_known;
          Alcotest.test_case "huge entries" `Quick test_det_big_entries;
          qtest "bareiss = laplace" arb_square prop_bareiss_vs_laplace;
          qtest "bareiss = field elimination" arb_square prop_bareiss_vs_field;
          qtest "crt = bareiss" ~count:60 arb_square prop_crt_vs_bareiss;
          qtest "det(A) = det(A^T)" arb_square prop_det_transpose;
          qtest "det multiplicative" (QCheck.pair arb_square arb_square)
            prop_det_multiplicative;
          qtest "row swap negates" arb_square prop_det_row_swap_negates;
          qtest "hadamard bound" arb_square prop_hadamard;
          qtest "singular_batch = map is_singular" QCheck.small_int
            prop_singular_batch_agrees ] );
      ( "rank-solve",
        [ Alcotest.test_case "solve known" `Quick test_solve_known;
          qtest "rank bounds" arb_rect prop_rank_bounds;
          qtest "rank transpose" arb_rect prop_rank_transpose;
          qtest "rank of product" (QCheck.pair arb_square arb_square)
            prop_rank_product;
          qtest "rank self augment" arb_rect prop_rank_self_augment;
          qtest "rref idempotent" arb_rect prop_rref_idempotent;
          qtest "nullspace" arb_rect prop_nullspace_kills;
          qtest "solve reconstructs or inconsistent"
            QCheck.(
              pair arb_rect
                (make ~print:print_mat_vec
                   Gen.(array_size (return 5) (int_range (-9) 9))))
            prop_solve_reconstructs;
          qtest "inverse" arb_square prop_inverse;
          qtest "singular iff rank deficient" arb_square
            prop_singular_iff_det_zero;
          qtest "rank mod p lower bound" arb_square prop_rank_mod_p_lower;
          Alcotest.test_case "ladder-prime scaled" `Quick test_ladder_scaled;
          Alcotest.test_case "empty and zero rows" `Quick
            test_empty_and_zero_rows;
          Alcotest.test_case "mod p pinned" `Quick test_mod_p_pinned ] );
      ( "lup",
        [ Alcotest.test_case "permutation sign" `Quick test_permutation_sign;
          Alcotest.test_case "singular input" `Quick test_lup_singular;
          qtest "PA = LU" arb_square prop_lup_verify;
          qtest "det from factors" arb_square prop_lup_det ] );
      ( "gram",
        [ qtest "A = QR verify" arb_rect prop_gram_verify;
          qtest "rank from Q" arb_rect prop_gram_rank ] );
      ( "subspace",
        [ Alcotest.test_case "basics" `Quick test_subspace_basics;
          Alcotest.test_case "intersection" `Quick test_subspace_intersect;
          Alcotest.test_case "projection" `Quick test_subspace_project;
          qtest "dimension formula" (QCheck.pair arb_rect arb_rect)
            prop_subspace_dim_formula;
          qtest "closed under sums" arb_rect prop_subspace_mem_closed;
          qtest "Ax in col space" arb_rect prop_column_space_contains_products
        ] );
      ( "smith",
        [ Alcotest.test_case "known values" `Quick test_smith_known;
          qtest "rank agrees" arb_rect prop_smith_rank;
          qtest "det abs" arb_square prop_smith_det_abs;
          qtest "divisibility chain" arb_rect prop_smith_chain;
          qtest "permutation invariant" arb_square
            prop_smith_permutation_invariant ] );
      ( "charpoly",
        [ Alcotest.test_case "known values" `Quick test_charpoly_known;
          qtest "det from charpoly" arb_square prop_charpoly_det;
          qtest "integer coefficients" arb_square prop_charpoly_integer_coeffs;
          qtest "cayley-hamilton" ~count:100 arb_square prop_cayley_hamilton;
          qtest "zero sigma count = corank" arb_rect
            prop_zero_singular_values_is_corank;
          qtest "gram constant coeff = det^2" arb_square
            prop_gram_charpoly_signs ] );
      ( "poly",
        [ Alcotest.test_case "arithmetic" `Quick test_poly_arith;
          Alcotest.test_case "divmod + remainder theorem" `Quick
            test_poly_divmod;
          Alcotest.test_case "sturm known roots" `Quick test_sturm_known;
          Alcotest.test_case "distinct singular values" `Quick
            test_distinct_singular_values;
          qtest "divmod invariant" (QCheck.pair arb_poly arb_poly)
            prop_poly_divmod_invariant;
          qtest "gcd divides" (QCheck.pair arb_poly arb_poly)
            prop_poly_gcd_divides;
          qtest "derivative linear" (QCheck.pair arb_poly arb_poly)
            prop_poly_derivative_linear;
          qtest "sign change implies root" arb_poly prop_sturm_vs_eval_signs;
          qtest "distinct sigma bounds" arb_rect prop_distinct_sigma_bounds;
          qtest "exact <= float count" ~count:100 arb_rect
            prop_sigma_count_matches_float ] );
      ( "workloads",
        [ qtest "random_of_rank exact" ~count:200 QCheck.small_int
            prop_random_of_rank_exact ] );
      ( "svd",
        [ qtest "reconstruction" arb_rect prop_svd_reconstructs;
          qtest "numeric rank = exact rank" arb_rect prop_svd_rank_agrees;
          qtest "singular values sorted" arb_rect prop_svd_descending ] ) ]
