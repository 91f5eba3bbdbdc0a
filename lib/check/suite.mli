(** The differential property suite: every optimized layer against an
    independent oracle.

    Coverage (optimized implementation vs. oracle):
    - [bigint.*] — {!Commx_bigint.Bigint} vs. native-int arithmetic on
      word-sized inputs, div/mod reconstruction laws, decimal
      round-trip, Karatsuba vs. forced schoolbook;
    - [modarith.*] — {!Commx_bigint.Modarith.Word} vs. bignum
      [(a op b) mod m], and the [inv] / [Division_by_zero] contract;
    - [bitvec.*] / [bitmat.*] — SWAR kernels ([popcount_int],
      [mono_masked], packed rows/columns) vs. bit-at-a-time loops;
    - [txtable.*] — {!Commx_util.Txtable} vs. an association model:
      exact agreement unbudgeted, fail-softness under eviction;
    - [exact_cc.*] — the optimized search vs. the reference enumerator,
      the certified lower/upper bound sandwich, and the packed-hex
      content key vs. the old text key (same alias classes);
    - [lower_bounds.*] — the word-level greedy fooling set, exact
      max rectangles, cover bound and whole {!Commx_comm.Rank_bound}
      report vs. the list-based kernels they replaced (equal lists,
      equal rectangles under the same tie rule);
    - [zmatrix.*] — Bareiss and CRT determinants vs. cofactor
      expansion, rank/determinant consistency, the Hadamard bound, and
      the word-prime rank, det, det_rank and singularity (and the 0/1
      rational rank) vs. elimination over ℚ and Bareiss;
    - [lemma32.*] — the singularity criterion vs. direct determinant
      evaluation on random and on completed (Lemma 3.5(a)) restricted
      Fig. 1/3 instances;
    - [wire.*] — {!Commx_serve.Wire.parse} (boards decoded straight
      into row words) vs. the tree-based decoder it replaced: the same
      value or the same error, byte for byte;
    - [json.*], [stats.*], [combi.*] — serialization round-trip
      (non-finite floats, control characters, escape-free and
      all-escaped strings, UTF-8), percentile/median
      consistency, overflow-exact [power] vs. bignum exponentiation. *)

val all : unit -> Property.t list
(** Every property, in a fixed order (the order does not affect any
    property's value stream — see {!Runner.case_seed}). *)
