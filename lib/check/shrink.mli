(** Shrink-candidate enumeration for failing fuzz cases.

    A shrinker maps a failing value to a lazy sequence of strictly
    "smaller" candidates, most aggressive first.  The runner keeps the
    first candidate that still fails and repeats ({!Runner}), so
    termination only needs every candidate to be smaller in some
    well-founded measure — these all shrink toward [0] / shorter
    arrays. *)

type 'a t = 'a -> 'a Seq.t

val nothing : 'a t
(** No candidates (opaque values). *)

val int : int t
(** Toward zero: [0], halving, then one step toward zero. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
(** Shrinks the left component first, then the right. *)

val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val array : ?elt:'a t -> unit -> 'a array t
(** Halves (first half, second half), then single-element removals
    (small arrays only), then per-element shrinks via [?elt]. *)

val list : ?elt:'a t -> unit -> 'a list t

val bigint : Commx_bigint.Bigint.t t
(** Toward {!Commx_bigint.Bigint.zero}: zero, then a right shift
    (truncated halving). *)

val bitmat : Commx_util.Bitmat.t t
(** Halves the dimensions, then clears one set bit at a time — a
    minimal counterexample matrix is usually sparse and tiny. *)

val zmatrix : Commx_linalg.Zmatrix.t t
(** Drops one row, then one column, then shrinks one entry at a time
    via {!bigint} — keeps whatever structure (a zero row, a common
    factor) the failure still needs. *)
