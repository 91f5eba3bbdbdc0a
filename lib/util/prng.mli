(** Deterministic, splittable pseudo-random number generation.

    All randomized components of the library (workload generators,
    randomized protocols, Monte-Carlo error estimation) draw from this
    module rather than [Stdlib.Random] so that every experiment is
    reproducible from a single seed.  The generator is SplitMix64
    (Steele, Lea & Flood, OOPSLA 2014): a 64-bit state advanced by a
    Weyl increment and finalized by a variant of the MurmurHash3
    finalizer.  It is fast, has a full 2^64 period, and admits cheap
    splitting, which we use to give independent streams to independent
    agents of a protocol. *)

type t
(** Mutable generator state: 8 bytes, so a draw boxes nothing but a
    [float] or [int64] result.  Every raw 64-bit draw counts once in
    the [prng.draws] counter. *)

val create : int -> t
(** [create seed] builds a generator from an arbitrary integer seed.
    Equal seeds yield equal streams. *)

val copy : t -> t
(** [copy g] is an independent generator that will replay [g]'s future
    output; mutating one does not affect the other. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of [g]'s subsequent output. *)

val bits64 : t -> int64
(** Next raw 64-bit block. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be
    positive.  Uses rejection sampling, so the distribution is exact. *)

val int_incl : t -> int -> int -> int
(** [int_incl g lo hi] is uniform in [\[lo, hi\]] ([lo <= hi]). *)

val bool : t -> bool
(** Uniform coin flip. *)

val float : t -> float
(** Uniform in [\[0, 1)], 53 bits of precision. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle: position [i] from the top swaps with
    [int g (i + 1)], for [i] from [length - 1] down to 1.  Adds its
    draws to [prng.draws] once per call. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement g m n] draws [m] distinct values from
    [\[0, n)], in uniformly random order.  Requires [0 <= m <= n]. *)
