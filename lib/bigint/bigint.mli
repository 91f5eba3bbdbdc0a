(** Arbitrary-precision signed integers.

    The container for this reproduction does not ship zarith, and the
    paper's constructions are meaningless in fixed precision (the hard
    instances contain powers of [q = 2^k - 1] up to [q^(n-1)], and exact
    determinants of those matrices overflow any machine word almost
    immediately), so this module implements bignums from scratch.

    Representation: sign-magnitude; the magnitude is a little-endian
    array of base-2^31 limbs with no leading zero limb.  Multiplication
    is schoolbook with a Karatsuba layer above {!karatsuba_threshold}
    limbs; division is Knuth's Algorithm D.  All operations are purely
    functional. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val minus_one : t
val two : t

val of_int : int -> t

val to_int : t -> int
(** @raise Failure if the value does not fit a native [int]. *)

val to_int_opt : t -> int option
val fits_int : t -> bool

val of_string : string -> t
(** Decimal, with optional leading ['-'] or ['+'] and embedded ['_']
    separators.  @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal rendering, ["-"]-prefixed when negative. *)

val of_string_opt : string -> t option

(** {1 Queries} *)

val sign : t -> int
(** -1, 0 or 1. *)

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val bit_length : t -> int
(** Bits in the magnitude; [bit_length zero = 0]. *)

val test_bit : t -> int -> bool
(** Bit [i] of the magnitude (two's complement is not modelled). *)

val is_even : t -> bool
val is_odd : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val mul_int : t -> int -> t
val add_int : t -> int -> t

val divmod : t -> t -> t * t
(** Truncated division (quotient rounded toward zero, remainder with
    the dividend's sign), as in OCaml's [/] and [mod].
    @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: remainder always in [\[0, |divisor|)]. *)

val erem : t -> t -> t

val rem_int : t -> int -> int
(** [rem_int x m] is the Euclidean remainder of [x] modulo [m], in
    [\[0, m)] — equal to [to_int (erem x (of_int m))] but computed
    limb-by-limb with zero allocation.  This is how every exact
    integer-matrix rank, determinant and singularity answer reduces its
    entries to the word residues it eliminates on.  Requires
    [1 < m < 2^31] (one limb).
    @raise Invalid_argument outside that range. *)

val pow : t -> int -> t
(** [pow b e] for [e >= 0]. @raise Invalid_argument on negative [e]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
(** Arithmetic shift of the magnitude (floor for negatives is NOT the
    semantics: [shift_right x n] is [x / 2^n] truncated toward zero). *)

val isqrt : t -> t
(** Integer square root: the largest [s] with [s*s <= x] (Newton's
    method).  @raise Invalid_argument on negative input. *)

val isqrt_ceil : t -> t
(** Smallest [s] with [s*s >= x]. *)

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd zero zero = zero]. *)

val gcdext : t -> t -> t * t * t
(** [gcdext a b = (g, x, y)] with [g = gcd a b >= 0] and
    [a*x + b*y = g]. *)

val lcm : t -> t -> t

(** {1 Infix operators}

    Deliberately distinct from the stdlib's integer operators so both
    can be used in one scope. *)

val ( +! ) : t -> t -> t
val ( -! ) : t -> t -> t
val ( *! ) : t -> t -> t
val ( /! ) : t -> t -> t
val ( %! ) : t -> t -> t
val ( =! ) : t -> t -> bool
val ( <! ) : t -> t -> bool
val ( <=! ) : t -> t -> bool
val ( >! ) : t -> t -> bool
val ( >=! ) : t -> t -> bool

(** {1 Randomness and misc} *)

val random_bits : Commx_util.Prng.t -> int -> t
(** Uniform in [\[0, 2^bits)]. *)

val random_below : Commx_util.Prng.t -> t -> t
(** Uniform in [\[0, bound)]; [bound] must be positive. *)

val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit

val karatsuba_threshold : int
(** Limb count above which multiplication switches to Karatsuba
    (exposed for the ablation bench). *)

val mul_schoolbook : t -> t -> t
(** Forced schoolbook multiplication, for cross-checks and the
    Karatsuba ablation bench. *)
