(** Integer matrices.

    Structural operations come from [Matrix.Make] over ℤ; on top we add
    the integer-specific machinery the reproduction needs:

    - {!det_bareiss}: fraction-free Gaussian elimination (Bareiss 1968).
      All intermediate values are exact integers (each is itself a minor
      of the input), avoiding rational blow-up.
    - {!hadamard_bound}: Hadamard's inequality, bounding every minor.
    - {!rank}, {!det}, {!det_rank}, {!is_singular}: exact answers from
      one word-size elimination ({!Commx_bigint.Modarith.Word.elim})
      per prime of a fixed ladder below 2^30, certified by the
      Hadamard bound (rank = max rank mod p, det by CRT) — no
      elimination over ℚ.
    - reductions mod a caller's prime for the fingerprinting protocol. *)

module B = Commx_bigint.Bigint
module Q = Commx_bigint.Rational
module P = Commx_bigint.Primes
include Matrix.Make (Ring.Z)

let of_int_array2 a =
  let nrows = Array.length a in
  let ncols = if nrows = 0 then 0 else Array.length a.(0) in
  if Array.exists (fun r -> Array.length r <> ncols) a then
    invalid_arg "Zmatrix.of_int_array2: ragged";
  init nrows ncols (fun i j -> B.of_int a.(i).(j))

let of_int_fn rows cols f = init rows cols (fun i j -> B.of_int (f i j))

let to_qmatrix m = Qmatrix.of_bigint_fn (rows m) (cols m) (get m)

let random ?(signed = true) g ~rows:nr ~cols:nc ~bits =
  init nr nc (fun _ _ ->
      let v = B.random_bits g bits in
      if signed && Commx_util.Prng.bool g then B.neg v else v)

(** Uniform entries in [\[0, 2^k - 1\]] — the paper's input format for
    k-bit matrices. *)
let random_kbit g ~rows:nr ~cols:nc ~k = random ~signed:false g ~rows:nr ~cols:nc ~bits:k

(** Random matrix of *exactly* the requested rank: a random
    rank-[target] diagonal conjugated by unit triangular matrices with
    small entries (determinant ±1, so the rank is exact, not just an
    upper bound).  Entry magnitudes are not k-bit bounded — this is a
    workload generator for rank-sensitive tests and benches. *)
let random_of_rank g ~rows:nr ~cols:nc ~rank:target =
  if target < 0 || target > Stdlib.min nr nc then
    invalid_arg "Zmatrix.random_of_rank";
  let d =
    init nr nc (fun i j ->
        if i = j && i < target then
          B.of_int (1 + Commx_util.Prng.int g 9)
        else B.zero)
  in
  let unit_lower n =
    init n n (fun i j ->
        if i = j then B.one
        else if j < i then B.of_int (Commx_util.Prng.int_incl g (-2) 2)
        else B.zero)
  in
  let unit_upper n =
    init n n (fun i j ->
        if i = j then B.one
        else if j > i then B.of_int (Commx_util.Prng.int_incl g (-2) 2)
        else B.zero)
  in
  mul (unit_lower nr) (mul d (unit_upper nc))

(* ------------------------------------------------------------------ *)
(* Bareiss fraction-free elimination                                   *)
(* ------------------------------------------------------------------ *)

(** [det_bareiss m] is the exact determinant.  The Bareiss recurrence
    [a'(i,j) = (a(r,r) * a(i,j) - a(i,r) * a(r,j)) / prev_pivot] keeps
    every intermediate entry an exact integer minor of the input. *)
let det_bareiss m =
  if not (is_square m) then invalid_arg "Zmatrix.det_bareiss: not square";
  let n = rows m in
  if n = 0 then B.one
  else begin
    let a = copy m in
    let sign = ref 1 in
    let prev = ref B.one in
    let result = ref None in
    (try
       for r = 0 to n - 2 do
         (* Pivot: any nonzero entry in column r at or below row r. *)
         if B.is_zero (get a r r) then begin
           let piv = ref (-1) in
           (try
              for i = r + 1 to n - 1 do
                if not (B.is_zero (get a i r)) then begin
                  piv := i;
                  raise Exit
                end
              done
            with Exit -> ());
           if !piv < 0 then begin
             result := Some B.zero;
             raise Exit
           end;
           swap_rows a r !piv;
           sign := - !sign
         end;
         let arr = get a r r in
         for i = r + 1 to n - 1 do
           for j = r + 1 to n - 1 do
             let v =
               B.div
                 (B.sub (B.mul arr (get a i j)) (B.mul (get a i r) (get a r j)))
                 !prev
             in
             set a i j v
           done;
           set a i r B.zero
         done;
         prev := arr
       done
     with Exit -> ());
    match !result with
    | Some d -> d
    | None ->
        let d = get a (n - 1) (n - 1) in
        if !sign < 0 then B.neg d else d
  end

(* ------------------------------------------------------------------ *)
(* Hadamard bound                                                      *)
(* ------------------------------------------------------------------ *)

(** [hadamard_bound m]: an integer H bounding the absolute value of
    every minor of [m] (of any shape), in particular |det m| for square
    [m].  From Hadamard's inequality |det| <= prod_i ||row_i||_2: a
    minor uses some of the rows, each restricted to some of the
    columns, so H = ceil sqrt (prod_i max(1, ||row_i||^2)) covers it.
    The max(1, .) is what makes H bound the minors that avoid a zero
    row; without it a zero row would give H = 0. *)
let hadamard_bound m =
  let prod = ref B.one in
  for i = 0 to rows m - 1 do
    let s = ref B.zero in
    for j = 0 to cols m - 1 do
      let v = get m i j in
      s := B.add !s (B.mul v v)
    done;
    prod := B.mul !prod (if B.is_zero !s then B.one else !s)
  done;
  B.isqrt_ceil !prod

(* ------------------------------------------------------------------ *)
(* Certified word-prime elimination                                    *)
(* ------------------------------------------------------------------ *)

(* Every exact answer below runs {!W.elim} on residues modulo the fixed
   prime ladder ({!P.ladder}, primes just below 2^30) and certifies it
   with the Hadamard bound H.  A nonzero minor D has |D| <= H, so it
   cannot vanish modulo primes whose product exceeds H:

   - rank over ℚ = max of the ranks mod those primes (each is <= it);
   - det = 0 iff det vanishes mod all of them;
   - det is the symmetric CRT lift once the product exceeds 2H.

   The products are judged by {!P.ladder_exceeds} from the ladder's
   2^29 floor and the bit length of H, without bignum products. *)

module W = Commx_bigint.Modarith.Word

let minor_bits m = B.bit_length (hadamard_bound m)

(* Canonical residues of the entries mod [p], row-major, into [buf]. *)
let residues buf m p =
  Array.iteri (fun i v -> buf.(i) <- B.rem_int v p) m.data

(** [ladder_rank ~rows ~cols ~bits fill] is the rank over ℚ of an
    integer matrix given by [fill buf p], which writes its canonical
    residues mod [p] row-major into [buf], and by [bits], with every
    minor at most [2^bits] in absolute value (forced only when the
    first prime falls short of full rank).  It takes the max of the
    ranks mod successive ladder primes until their product exceeds
    [2^bits], stopping early at [min rows cols]. *)
let ladder_rank ~rows:nr ~cols:nc ~bits fill =
  let full = Stdlib.min nr nc in
  let buf = Array.make (nr * nc) 0 in
  let rec go t best =
    if best = full || (t > 0 && P.ladder_exceeds t (Lazy.force bits)) then
      best
    else begin
      let p = P.ladder t in
      fill buf p;
      let _, r = W.elim (W.modulus p) buf ~rows:nr ~cols:nc in
      go (t + 1) (Stdlib.max best r)
    end
  in
  go 0 0

let rank m =
  ladder_rank ~rows:(rows m) ~cols:(cols m)
    ~bits:(lazy (minor_bits m))
    (fun buf p -> residues buf m p)

(** [det_rank m] is [(det m, rank m)] from one elimination per ladder
    prime: the determinant residues are lifted by CRT once the product
    exceeds 2H, and the ranks along the way certify the rank. *)
let det_rank m =
  if not (is_square m) then invalid_arg "Zmatrix.det_rank: not square";
  let n = rows m in
  let bits = minor_bits m + 1 in
  let buf = Array.make (n * n) 0 in
  let rec go t rank acc =
    if P.ladder_exceeds t bits then begin
      let x, modulus = Commx_bigint.Modarith.crt acc in
      (* Symmetric lift: values above modulus/2 are negative. *)
      let half = B.shift_right modulus 1 in
      ((if B.compare x half > 0 then B.sub x modulus else x), rank)
    end
    else begin
      let p = P.ladder t in
      residues buf m p;
      let d, r = W.elim (W.modulus p) buf ~rows:n ~cols:n in
      go (t + 1) (Stdlib.max rank r) ((B.of_int d, B.of_int p) :: acc)
    end
  in
  go 0 0 []

(** [det m] is the exact determinant, by CRT over the ladder
    ({!det_rank}); {!det_bareiss} is its independent oracle. *)
let det m = fst (det_rank m)

(* Singularity in a caller-supplied buffer: nonsingular at the first
   prime where det survives, singular once det has vanished modulo
   primes whose product exceeds H (no CRT needed). *)
let singular_in buf m =
  let n = rows m in
  let bits = lazy (minor_bits m) in
  let rec go t =
    let p = P.ladder t in
    residues buf m p;
    let d, _ = W.elim (W.modulus p) buf ~rows:n ~cols:n in
    d = 0 && (P.ladder_exceeds (t + 1) (Lazy.force bits) || go (t + 1))
  in
  go 0

let is_singular m =
  if not (is_square m) then invalid_arg "Zmatrix.is_singular: not square";
  singular_in (Array.make (rows m * rows m) 0) m

(** Singularity of a batch, sharing one residue buffer. *)
let singular_batch ms =
  let cells =
    Array.fold_left
      (fun acc m ->
        if not (is_square m) then
          invalid_arg "Zmatrix.singular_batch: not square";
        Stdlib.max acc (rows m * rows m))
      0 ms
  in
  let buf = Array.make cells 0 in
  Array.map (singular_in buf) ms

(* One word elimination modulo a caller's prime [p] (any prime below
   2^31, not necessarily on the ladder). *)
let elim_mod_p m p =
  if not (P.is_prime p) then invalid_arg "Zmatrix: modulus is not prime";
  let buf = Array.make (rows m * cols m) 0 in
  residues buf m p;
  W.elim (W.modulus p) buf ~rows:(rows m) ~cols:(cols m)

(** Determinant modulo a word prime — O(n^3) word operations. *)
let det_mod_p m p =
  if not (is_square m) then invalid_arg "Zmatrix.det_mod_p";
  fst (elim_mod_p m p)

(** Rank modulo a word prime.  A lower bound on the true rank; equal to
    it for all but finitely many primes. *)
let rank_mod_p m p = snd (elim_mod_p m p)

(* ------------------------------------------------------------------ *)
(* Misc                                                                *)
(* ------------------------------------------------------------------ *)

(** Total number of bits needed to transmit the matrix when every entry
    is known to fit in [k] bits — the paper's input-size measure. *)
let encoding_bits m ~k = rows m * cols m * k

let max_entry_bits m =
  Array.fold_left
    (fun acc i -> Stdlib.max acc i)
    0
    (Array.init (rows m * cols m) (fun i ->
         B.bit_length (get m (i / cols m) (i mod cols m))))
