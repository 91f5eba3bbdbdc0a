(** Dense boolean matrices over GF(2).

    Two independent uses in this library:
    - as *truth matrices* of two-argument boolean functions, where an
      entry is the function value for a (row argument, column argument)
      pair, and
    - as GF(2) linear-algebra objects, where [rank] gives the log-rank
      communication lower bound of the corresponding truth matrix.

    Rows are stored as {!Bitvec.t}. *)

type t

val create : int -> int -> t
(** [create rows cols], all zero. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> bool
val set : t -> int -> int -> bool -> unit

val copy : t -> t
val equal : t -> t -> bool

val row : t -> int -> Bitvec.t
(** The row as a bit vector (a copy; mutating it does not affect the
    matrix). *)

val init : int -> int -> (int -> int -> bool) -> t

val of_packed_rows : int -> int -> int array -> t
(** [of_packed_rows rows cols words] builds the matrix from row words
    in {!Bitvec.of_words} layout: row [i] is stored in
    [w = Bitvec.words_for cols] words from [words.(i * w)].  Copies, so
    [words] can be a reused scratch buffer.
    @raise Invalid_argument as {!Bitvec.of_words}. *)

val to_words : t -> int array
(** The inverse of {!of_packed_rows}: every row's storage words, row
    [i] from index [i * Bitvec.words_for (cols m)].  A fresh array, so
    word kernels can read whole rows at any width. *)

val key : t -> string
(** Content address: ["<rows>x<cols>:"] then every row in
    {!Bitvec.blit_hex} form, with no separator (the width is fixed by
    [cols]).  Two matrices have the same key exactly when they are
    {!equal}.  A 16x16 board takes 70 bytes. *)

val transpose : t -> t

val mul : t -> t -> t
(** GF(2) matrix product.  Inner dimensions must agree. *)

val identity : int -> t

val rank : t -> int
(** Rank over GF(2) by row elimination.  Does not mutate. *)

val rank_batch : t array -> int array
(** [rank_batch ms] equals [Array.map rank ms] bit for bit, but packs
    each board's rows into native ints and eliminates with single-word
    XORs, reusing one scratch buffer across the whole batch — the
    amortized kernel behind high-throughput Corollary 4.4-style rank
    sweeps.  Boards wider than {!Bitvec.bits_per_word} columns fall
    back to {!rank} per board.  Does not mutate its inputs. *)

val rank_packed_inplace : int array -> int -> int -> int
(** [rank_packed_inplace buf rows cols] is the GF(2) rank of the
    matrix whose row [i] is the word [buf.(i)] (bit [j] = column [j]),
    for [i < rows] and [j < cols].  Overwrites [buf.(0 .. rows-1)] with
    a row echelon form and allocates nothing, so a caller can reuse
    one scratch buffer across many calls. *)

val count_ones : t -> int
(** Total number of [true] entries. *)

val submatrix : t -> int array -> int array -> t
(** [submatrix m rs cs] selects the given rows and columns, in order. *)

val random : Prng.t -> int -> int -> t

val complement : t -> t
(** Entrywise boolean negation (the truth matrix of [not f]): each row
    word XORed with its column mask. *)

(** {2 Packed-word kernels}

    The exact-CC game-tree search addresses sub-matrices as (row set,
    column set) bit masks and must test them without per-bit
    accessors.  These kernels expose whole matrix lines as single
    native ints (matrices at most {!Bitvec.bits_per_word} wide/tall)
    so the search inner loop is pure word arithmetic. *)

val packed_rows : t -> int array
(** [packed_rows m] is one int per row, bit [j] = [get m i j].
    @raise Invalid_argument when [cols m > Bitvec.bits_per_word]. *)

val packed_cols : t -> int array
(** [packed_cols m] is one int per column, bit [i] = [get m i j].
    @raise Invalid_argument when [rows m > Bitvec.bits_per_word]. *)

val mono_masked : int array -> rmask:int -> cmask:int -> int
(** [mono_masked (packed_rows m) ~rmask ~cmask] classifies the
    sub-matrix of [m] selected by the two index masks: [0] all zeros,
    [1] all ones, [-1] mixed.  Empty selections are all-zero by
    convention.  One word-op pass over the selected rows. *)

val pp : Format.formatter -> t -> unit
(** Prints ['0']/['1'] rows, one per line. *)
