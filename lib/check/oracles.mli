(** Independent reference implementations the fuzzer diffs against.

    Each oracle recomputes a quantity the optimized stack produces, by
    the most naive means available — per-bit loops where the kernels
    use SWAR words, cofactor expansion where {!Commx_linalg.Zmatrix}
    uses Bareiss/CRT, a hash-table model where {!Commx_util.Txtable}
    uses open addressing.  Slow on purpose: sharing code (or cleverness)
    with the implementation under test would share its bugs. *)

val popcount_int_naive : int -> int
(** Bit-at-a-time popcount of a non-negative native int. *)

val bitvec_bools : Commx_util.Bitvec.t -> bool array
(** The vector as a plain bool array (via per-index [get]). *)

val mono_masked_naive :
  Commx_util.Bitmat.t -> rmask:int -> cmask:int -> int
(** Per-entry reimplementation of {!Commx_util.Bitmat.mono_masked}
    ([0] all zeros, [1] all ones, [-1] mixed, empty = [0]). *)

val count_ones_naive : Commx_util.Bitmat.t -> int

val det_cofactor : Commx_linalg.Zmatrix.t -> Commx_bigint.Bigint.t
(** Determinant by first-row cofactor expansion — O(n!), fine for the
    tiny matrices the fuzzer draws.
    @raise Invalid_argument on non-square input. *)

val board_rank_q : Commx_util.Bitmat.t -> int
(** Rank of a 0/1 board by elimination over ℚ ({!Commx_linalg.Qmatrix})
    — the oracle for {!Commx_comm.Rank_bound.rational_rank}, which
    runs on word primes instead. *)

(** {2 Lower-bound kernels}

    The list-based fooling-set and max-rectangle kernels that
    {!Commx_comm.Fooling} and {!Commx_comm.Rectangle} replaced with
    word kernels.  Same contracts, so the answers must be equal, list
    order and tie rule included. *)

val fooling_greedy : ('a, 'b) Commx_comm.Truth_matrix.t -> Commx_comm.Fooling.t
(** Row-major greedy: each one-cell is checked against every chosen
    pair with [Truth_matrix.get]; acceptance order. *)

val fooling_greedy_randomized :
  Commx_util.Prng.t ->
  ?restarts:int ->
  ('a, 'b) Commx_comm.Truth_matrix.t ->
  Commx_comm.Fooling.t
(** {!fooling_greedy}, then [restarts] (default 16) passes over a
    cell-tuple array shuffled in place; a strictly larger pass wins, in
    reverse acceptance order. *)

val max_one_rectangle_exact :
  ?min_rows:int -> Commx_util.Bitmat.t -> Commx_comm.Rectangle.rect
(** Every row subset of the smaller side as a fresh list from
    [Combi.iter_subsets] (so at most 20 rows), its column intersection
    rebuilt from scratch; the first strict maximum in ascending-mask
    order. *)

val max_zero_rectangle_exact :
  ?min_rows:int -> Commx_util.Bitmat.t -> Commx_comm.Rectangle.rect

val cover_lower_bound : Commx_util.Bitmat.t -> exact:bool -> float
(** {!Commx_comm.Rectangle.cover_lower_bound} over the rectangles above
    (the greedy ones when [~exact:false]) and a per-cell complement. *)

val lower_bounds_report :
  ('a, 'b) Commx_comm.Truth_matrix.t ->
  exact_rect:bool ->
  Commx_comm.Rank_bound.report
(** {!Commx_comm.Rank_bound.analyze} with the fooling set and the cover
    bound above (the ranks are the library's). *)

(** Association model of {!Commx_util.Txtable}: last write wins, no
    capacity, no eviction.  An unbudgeted table must agree exactly; a
    budgeted table must be {e fail-soft} against it (absent or equal,
    never a wrong value). *)
module Table_model : sig
  type t

  val create : unit -> t
  val set : t -> int -> int -> unit

  val find : t -> int -> int
  (** [-1] when absent, like the real table. *)

  val length : t -> int
  val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
end

val wire_parse :
  string ->
  (Commx_serve.Wire.envelope, Commx_util.Json.t * string) result
(** The tree-based request decoder {!Commx_serve.Wire.parse} replaced:
    {!Commx_util.Json.of_string} on the whole line, then each field read
    off the tree.  {!Commx_serve.Wire.parse} must give the same [Ok]
    value or the same [Error], byte for byte. *)

val canonical_key_text : Commx_util.Bitmat.t -> string
(** The exact-CC content key as it was before row words: the board's
    distinct rows then distinct columns (first occurrences, in order),
    complemented when more than half its cells are ones, rendered as
    ["<rows>x<cols>:"] and ['0']/['1'] rows joined by ['.'].  Built
    here from plain strings, independently of
    {!Commx_comm.Exact_cc.canonical_key}, which must alias exactly the
    same boards. *)
