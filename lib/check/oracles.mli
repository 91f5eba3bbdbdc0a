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
