(** Modular arithmetic, in two flavours.

    The word-size flavour ({!Word}) works modulo an [int] modulus below
    2^31 so that products never overflow a 63-bit native int; it powers
    the randomized fingerprinting protocol (entries reduced mod a random
    prime) and, through {!Word.elim}, every exact rank, determinant and
    singularity computation on integer matrices.  The bignum flavour
    operates on {!Bigint} values for arbitrary moduli. *)

module Word : sig
  type modulus = private int
  (** A checked modulus in [\[2, 2^31)]. *)

  val modulus : int -> modulus
  (** @raise Invalid_argument outside [\[2, 2^31)]. *)

  val to_int : modulus -> int

  val reduce : modulus -> int -> int
  (** Canonical residue in [\[0, m)] of any native int (negative
      included). *)

  val reduce_big : modulus -> Bigint.t -> int
  (** Canonical residue of a bignum. *)

  (** {!add}, {!sub}, {!mul}, {!pow} and {!neg} expect {e canonical}
      residues in [\[0, m)] (as produced by {!reduce} / {!reduce_big})
      and return canonical residues; feeding them out-of-range
      representatives is unchecked and gives wrong answers rather than
      an error. *)

  val add : modulus -> int -> int -> int
  val sub : modulus -> int -> int -> int
  val mul : modulus -> int -> int -> int

  val pow : modulus -> int -> int -> int
  (** [pow m b e] for [e >= 0]; [pow m b 0 = 1] for every canonical [b]
      (including [b = 0]), for any modulus — prime or composite. *)

  val inv : modulus -> int -> int
  (** Multiplicative inverse of a canonical residue.
      @raise Division_by_zero when [gcd (x, m) <> 1] — in particular on
      [x = 0], and on any [x] sharing a factor with a composite
      modulus.  Never returns a bogus value for non-invertible
      arguments. *)

  val neg : modulus -> int -> int

  val elim : modulus -> int array -> rows:int -> cols:int -> int * int
  (** [elim m a ~rows ~cols] is [(det, rank)] of the [rows] x [cols]
      matrix held row-major in the first [rows * cols] cells of [a], by
      one pass of Gaussian elimination over GF(m).  Entries must be
      canonical residues and [m] must be prime.  [det] is the
      determinant mod [m] for square input ([1] for 0 x 0) and [0] for
      rectangular input.  [a] is overwritten.  This is the one word
      elimination behind the exact integer-matrix rank, determinant and
      singularity answers and the rational rank of 0/1 boards.
      @raise Invalid_argument on a negative dimension or when [a] holds
      fewer than [rows * cols] cells.
      @raise Division_by_zero when a pivot is not invertible, which
      only a composite [m] allows. *)
end

(** Arbitrary-precision modular operations.  All arguments are reduced
    first, so any representative is accepted. *)

val add : m:Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
val sub : m:Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
val mul : m:Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t

val pow : m:Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
(** [pow ~m b e] with [e >= 0] by square-and-multiply. *)

val inv : m:Bigint.t -> Bigint.t -> Bigint.t
(** @raise Division_by_zero when gcd(x, m) <> 1. *)

val crt : (Bigint.t * Bigint.t) list -> Bigint.t * Bigint.t
(** [crt \[(r1, m1); (r2, m2); ...\]] solves the simultaneous
    congruences x = ri (mod mi) for pairwise-coprime moduli, returning
    [(x, m1*m2*...)] with [0 <= x < product].
    @raise Invalid_argument on an empty list or non-coprime moduli. *)
