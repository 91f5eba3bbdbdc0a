(** Explicit truth matrices of two-argument boolean functions.

    Fix an input partition; a decision problem becomes a function
    [f : X x Y -> bool] where [X] is the set of Agent-1 input halves
    and [Y] the set of Agent-2 halves.  For enumerable [X] and [Y] the
    function is a boolean matrix — the object all of Yao's lower-bound
    machinery (Section 2 of the paper) operates on.  Rows are Agent-1
    instances, columns Agent-2 instances. *)

type ('a, 'b) t = {
  row_args : 'a array;
  col_args : 'b array;
  values : Commx_util.Bitmat.t;
}

val build : 'a list -> 'b list -> ('a -> 'b -> bool) -> ('a, 'b) t

val of_bitmat : Commx_util.Bitmat.t -> (int, int) t
(** The board itself as a truth matrix, labelled by row and column
    index: [build] over [0 .. rows-1] and [0 .. cols-1] with
    [Bitmat.get], as a word copy (and the same [truth_matrix.*]
    counters). *)

val rows : ('a, 'b) t -> int
val cols : ('a, 'b) t -> int

val get : ('a, 'b) t -> int -> int -> bool

val count_ones : ('a, 'b) t -> int
val count_zeros : ('a, 'b) t -> int

val ones_per_row : ('a, 'b) t -> int array
val ones_per_col : ('a, 'b) t -> int array

val density : ('a, 'b) t -> float
(** Fraction of one entries. *)

val to_bitmat : ('a, 'b) t -> Commx_util.Bitmat.t
(** A copy of the underlying boolean matrix. *)

val restrict : ('a, 'b) t -> int array -> int array -> ('a, 'b) t
(** Sub-truth-matrix on the given row/column indices — the paper's
    "carefully selecting a sufficiently large submatrix" step. *)

val map_labels : ('a -> 'c) -> ('b -> 'd) -> ('a, 'b) t -> ('c, 'd) t
