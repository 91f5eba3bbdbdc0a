(** Fixed-length mutable bit vectors.

    Used throughout the communication layer to represent transcripts,
    input halves under a bit partition, and rows of truth matrices.
    Bits are indexed from 0; storage is packed 62 bits per native
    word. *)

type t

val bits_per_word : int
(** Bits stored per native word (62: all word-level operations stay in
    OCaml's tagged-integer range). *)

val words_for : int -> int
(** Storage words of a vector of the given length. *)

val create : int -> t
(** [create n] is an all-zero vector of length [n]. *)

val length : t -> int

val get : t -> int -> bool
val set : t -> int -> bool -> unit

val copy : t -> t

val equal : t -> t -> bool
(** Structural equality of length and contents. *)

val compare : t -> t -> int
(** Total order compatible with [equal] (lexicographic on words). *)

val hash : t -> int

val popcount : t -> int
(** Number of set bits. *)

val popcount_int : int -> int
(** Branch-free popcount of a single non-negative native int — the
    word-level kernel behind {!popcount}, exposed for packed-mask
    search loops (the exact-CC engine). *)

val xor_into : t -> t -> unit
(** [xor_into dst src] sets [dst <- dst lxor src].  Lengths must
    match. *)

val and_into : t -> t -> unit
val or_into : t -> t -> unit

val is_zero : t -> bool

val lognot : t -> t
(** Bitwise complement within the length: one XOR per storage word. *)

val fold_set_bits : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over indices of set bits, ascending. *)

val of_int : int -> int -> t
(** [of_int n v] is the length-[n] vector of the low [n] bits of [v]
    (bit [i] of the vector = bit [i] of [v]).  Requires [0 <= n <= 62]. *)

val to_int : t -> int
(** Inverse of [of_int] for lengths at most 62.
    @raise Invalid_argument when the vector is longer than 62 bits. *)

val random : Prng.t -> int -> t
(** Uniformly random vector of the given length. *)

val append : t -> t -> t

val sub : t -> int -> int -> t
(** [sub v pos len] extracts a contiguous slice. *)

val of_words : int -> int array -> int -> t
(** [of_words n words pos] is the length-[n] vector stored in
    [words.(pos)] .. [words.(pos + words_for n - 1)]: bit [i] is bit
    [i mod bits_per_word] of word [i / bits_per_word].  Copies.
    @raise Invalid_argument when the words run past the array or set a
    bit at or past [n]. *)

val blit_words : t -> int array -> int -> unit
(** [blit_words v dst pos] writes the {!words_for}[ (length v)] storage
    words of [v] to [dst.(pos)] onward, in {!of_words} layout (its
    inverse).
    @raise Invalid_argument when they run past [dst]. *)

val hex_digits : int -> int
(** Digits {!blit_hex} writes for a vector of the given length. *)

val blit_hex : t -> Bytes.t -> int -> unit
(** [blit_hex v b pos] writes the bits at [b.[pos]] as fixed-width
    lowercase hex: each storage word, low nibble first, in
    [ceil (bits / 4)] digits for the bits it holds.  Vectors of one
    length always take {!hex_digits} digits, and differ exactly when
    their digits do.
    @raise Invalid_argument when [b] is too short. *)

val to_string : t -> string
(** Bits as ['0']/['1'] characters, index 0 first. *)

val of_string : string -> t
(** Inverse of [to_string].
    @raise Invalid_argument on characters other than '0'/'1'. *)
