(** Log-rank communication lower bounds.

    Mehlhorn–Schmidt: the deterministic communication complexity of a
    boolean function is at least [log2 rank(M_f)] where the rank is
    taken over any field (the rational rank gives the strongest
    bound; GF(2) rank is cheaper and also valid).  Used alongside the
    rectangle-cover and fooling-set bounds to certify the lower-bound
    side of Theorem 1.1 at enumerable sizes. *)

val gf2_rank : Commx_util.Bitmat.t -> int
(** Rank of the 0/1 truth matrix over GF(2). *)

val rational_rank : Commx_util.Bitmat.t -> int
(** Rank of the 0/1 truth matrix over ℚ (>= GF(2) rank), exact: the
    max of its ranks modulo word primes of
    {!Commx_bigint.Primes.ladder}, taken until their product exceeds
    the integer Hadamard bound [2^(S/2)], [S] the sum over rows of the
    bit length of the row's popcount — no elimination over ℚ.  Stops
    at the first prime that reaches full rank. *)

val log_rank_bound : Commx_util.Bitmat.t -> float
(** [log2 (rational rank)], a communication lower bound in bits
    (0 for rank-0 matrices). *)

type report = {
  n_rows : int;
  n_cols : int;
  ones : int;
  gf2 : int;
  rational : int;
  log_rank : float;
  fooling : int;  (** best fooling-set size found *)
  fooling_bits : float;
  cover_bits : float;  (** rectangle-cover partition bound, exact *)
  trivial_upper : float;  (** log2 min(rows, cols): cost of sending one whole side *)
}

val analyze : ('a, 'b) Truth_matrix.t -> exact_rect:bool -> report
(** One-stop lower-bound report for an explicit truth matrix.  With
    [~exact_rect:false], the cover bound uses the greedy rectangle
    heuristic and is reported as an estimate. *)

val pp_report : Format.formatter -> report -> unit
