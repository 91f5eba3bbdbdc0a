module Bm = Commx_util.Bitmat
module Zm = Commx_linalg.Zmatrix

let gf2_rank = Bm.rank

let rec bit_length x = if x = 0 then 0 else 1 + bit_length (x lsr 1)

(* The 0/1 cells never change residue, so every prime starts from the
   same buffer.  A 0/1 row's squared norm is its popcount, so every
   minor is at most sqrt (prod_i max(1, popcount_i)) <= 2^(S/2) with
   S = sum_i bit_length popcount_i: an integer bound, no bignums. *)
let rational_rank m =
  let nr = Bm.rows m and nc = Bm.cols m in
  let cells =
    Array.init (nr * nc) (fun c -> Bool.to_int (Bm.get m (c / nc) (c mod nc)))
  in
  let bits =
    lazy
      (let s = ref 0 in
       for i = 0 to nr - 1 do
         let ones = ref 0 in
         for j = 0 to nc - 1 do
           ones := !ones + cells.((i * nc) + j)
         done;
         s := !s + bit_length !ones
       done;
       (!s + 1) / 2)
  in
  Zm.ladder_rank ~rows:nr ~cols:nc ~bits (fun buf _ ->
      Array.blit cells 0 buf 0 (nr * nc))

let log_rank_bound m =
  let r = rational_rank m in
  if r <= 0 then 0.0 else log (float_of_int r) /. log 2.0

type report = {
  n_rows : int;
  n_cols : int;
  ones : int;
  gf2 : int;
  rational : int;
  log_rank : float;
  fooling : int;
  fooling_bits : float;
  cover_bits : float;
  trivial_upper : float;
}

let analyze tm ~exact_rect =
  let m = Truth_matrix.to_bitmat tm in
  let g = Commx_util.Prng.create 1234 in
  let fooling_set = Fooling.greedy_randomized g tm in
  let gf2 = gf2_rank m in
  let rational = rational_rank m in
  {
    n_rows = Bm.rows m;
    n_cols = Bm.cols m;
    ones = Bm.count_ones m;
    gf2;
    rational;
    log_rank = (if rational <= 0 then 0.0 else log (float_of_int rational) /. log 2.0);
    fooling = List.length fooling_set;
    fooling_bits = Fooling.lower_bound_bits fooling_set;
    cover_bits = Rectangle.cover_lower_bound m ~exact:exact_rect;
    trivial_upper =
      log (float_of_int (max 1 (min (Bm.rows m) (Bm.cols m)))) /. log 2.0;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>truth matrix %dx%d, %d ones@,\
     rank: GF(2)=%d, Q=%d (log-rank bound %.2f bits)@,\
     fooling set: %d (%.2f bits)@,\
     rectangle-cover bound: %.2f bits@,\
     trivial upper bound: %.2f bits@]"
    r.n_rows r.n_cols r.ones r.gf2 r.rational r.log_rank r.fooling
    r.fooling_bits r.cover_bits r.trivial_upper
