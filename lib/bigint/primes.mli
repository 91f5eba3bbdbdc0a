(** Primality testing and prime generation for word-size integers.

    The randomized singularity protocol needs a *shared random prime*
    of Θ(max(log n, log k) + log 1/ε) bits; exact elimination needs a
    supply of large word-size primes, the memoised {!ladder}.  Every
    prime this module touches is below 2^31, so {!Modarith.Word}
    arithmetic applies and the Miller–Rabin test below is fully
    deterministic (the witness set
    {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} is exact for all
    64-bit integers, hence a fortiori here). *)

val is_prime : int -> bool
(** Deterministic primality for [0 <= n < 2^31]. *)

val next_prime : int -> int
(** Smallest prime strictly greater than the argument.
    @raise Invalid_argument when the result would reach 2^31. *)

val nth_prime_below : int -> int -> int
(** [nth_prime_below i bound]: the [i]-th (0-based) prime counting
    *down* from [bound - 1].  Used to pick fixed CRT prime ladders.
    @raise Not_found if fewer than [i+1] primes exist below [bound]. *)

val ladder : int -> int
(** [ladder i] is the [i]-th (0-based) prime counting down from 2^30:
    the fixed prime ladder behind every exact determinant, rank and
    singularity answer.  Memoised and grown on demand, safe to call
    from any domain.  Every ladder prime exceeds
    [2^ladder_floor_bits].
    @raise Invalid_argument on a negative index. *)

val ladder_floor_bits : int
(** [29]: each ladder prime exceeds [2^29], so the product of the first
    [t] of them exceeds [2^(29 t)]. *)

val ladder_exceeds : int -> int -> bool
(** [ladder_exceeds t bits] is [true] only when [t >= 1] and the product
    of the first [t] ladder primes exceeds [2^bits], judged from
    {!ladder_floor_bits} alone (no bignum product). *)

val random_prime : Commx_util.Prng.t -> bits:int -> int
(** Uniformly random prime with exactly [bits] bits (top bit set),
    [2 <= bits <= 30], by rejection sampling. *)

val primes_below : int -> int list
(** Ascending list of all primes < bound (simple sieve; bound <= 10^7
    to keep memory sane). *)

val primorial_bits : int -> float
(** [primorial_bits b]: a lower bound on the number of distinct [b]-bit
    primes, from the prime number theorem with explicit Rosser-type
    constants — used to size the fingerprint prime so that the union
    bound over matrix entries gives error <= epsilon.  Returns the
    (floating) count estimate. *)

val fingerprint_prime_bits : n:int -> k:int -> epsilon:float -> int
(** Number of prime bits sufficient for the fingerprinting protocol on
    a 2n x 2n matrix of k-bit entries to err with probability at most
    [epsilon]: enough primes must exist that a random one divides the
    (nonzero) determinant with probability <= epsilon.  Derived from
    Hadamard's bound on |det| and the PNT estimate above; clamped to
    [\[3, 30\]]. *)
