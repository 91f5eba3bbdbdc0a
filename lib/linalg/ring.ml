(** Algebraic structure signatures and the instances used throughout
    the library.

    The exact linear-algebra layer is written once, generically, and
    instantiated twice: over the integers ℤ (for Bareiss fraction-free
    elimination and Hadamard bounds) and over the rationals ℚ (for
    solve / LUP / span operations — the decisions the paper's problems
    reduce to).  Prime fields GF(p) need no instance: integer rank,
    determinant and singularity run on unboxed word residues
    ({!Commx_bigint.Modarith.Word.elim}). *)

module type RING = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val mul : t -> t -> t
  val equal : t -> t -> bool
  val is_zero : t -> bool
  val to_string : t -> string
end

module type FIELD = sig
  include RING

  val inv : t -> t
  (** @raise Division_by_zero on zero. *)

  val div : t -> t -> t
end

(** The integers. *)
module Z : RING with type t = Commx_bigint.Bigint.t = struct
  include Commx_bigint.Bigint

  let to_string = Commx_bigint.Bigint.to_string
end

(** The rationals. *)
module Q : FIELD with type t = Commx_bigint.Rational.t = struct
  include Commx_bigint.Rational

  let to_string = Commx_bigint.Rational.to_string
end
