(** Fooling sets.

    A 1-fooling set is a set of input pairs \{(x_i, y_i)\} with
    [f x_i y_i = true] for all [i] and, for every [i <> j],
    [f x_i y_j = false] or [f x_j y_i = false].  No two elements of a
    fooling set can share a monochromatic rectangle, so communication
    is at least [log2 |S|].  This is the "transitivity approach of
    Vuillemin" the paper contrasts itself against: it works for the
    identity problem (experiment E11) but cannot reach Θ(k n²) for
    singularity — our experiments make that gap visible. *)

type t = (int * int) list
(** Pairs of (row index, column index) into a truth matrix. *)

val is_fooling_set : ('a, 'b) Truth_matrix.t -> t -> bool
(** Validity check against the definition. *)

val greedy : ('a, 'b) Truth_matrix.t -> t
(** Deterministic greedy construction scanning ones in row-major
    order; always valid, not necessarily maximal.  Returned in
    acceptance order.  Cost: one pass over the cells on row words —
    a cell is accepted iff it is a one and not in its row's blocked
    mask, and each acceptance ORs one row into the blocked mask of
    every row with a one in its column (O(rows * row words) per
    accepted cell), at any width. *)

val greedy_randomized :
  Commx_util.Prng.t -> ?restarts:int -> ('a, 'b) Truth_matrix.t -> t
(** Best of {!greedy} and [restarts] (default 16) greedy passes over
    the cells in a random order: one cell array, shuffled in place
    before each pass ({!Commx_util.Prng.shuffle}, so the stream is a
    function of [g] and the shape).  Only a strictly larger pass
    replaces the best, and a pass that wins is returned in reverse
    acceptance order.  Same cost per pass as {!greedy}, and no list is
    built for a pass that does not win. *)

val diagonal_candidate : ('a, 'b) Truth_matrix.t -> t
(** The diagonal \{(i, i)\} filtered to one entries — the natural
    candidate when rows and columns are indexed by the same set (the
    identity problem's canonical fooling set).  Validity must still be
    checked with {!is_fooling_set}. *)

val lower_bound_bits : t -> float
(** [log2 (max 1 |S|)]. *)

val largest_identity_embedding : ('a, 'b) Truth_matrix.t -> t
(** The largest *induced identity*: pairs \{(x_i, y_i)\} with
    [f x_i y_i = 1] and [f x_i y_j = 0] for every [i <> j] in *both*
    orders — the structure Vuillemin's transitivity argument needs.
    Every identity embedding is a fooling set but not conversely.
    Exact branch-and-bound (intended for truth matrices with at most a
    few hundred ones); the paper's point is that singularity admits
    only small ones. *)

val is_identity_embedding : ('a, 'b) Truth_matrix.t -> t -> bool
