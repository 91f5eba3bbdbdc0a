(** Monochromatic rectangle analysis.

    A *rectangle* is a product [R x S] of row and column sets; it is
    1-chromatic (resp. 0-chromatic) when every entry of the truth
    matrix inside it is 1 (resp. 0).  Yao's theorem: any protocol of
    cost [c] partitions the truth matrix into at most [2^(c+2)]
    monochromatic rectangles, so [c >= log2 d(f) - 2] where [d(f)] is
    the minimum partition size.  Claims (2a)/(2b) of the paper bound
    [d(f)] from below by (number of ones) / (largest 1-rectangle), and
    this module computes both quantities — exactly by row-subset
    enumeration when the matrix is small, greedily otherwise. *)

type rect = { row_set : int array; col_set : int array }

val area : rect -> int

val is_monochromatic : Commx_util.Bitmat.t -> rect -> bool option
(** [Some true] if 1-chromatic, [Some false] if 0-chromatic, [None] if
    mixed or empty. *)

val max_one_rectangle_exact : ?min_rows:int -> Commx_util.Bitmat.t -> rect
(** Largest-area all-ones rectangle with at least [min_rows] rows
    (default 1), by enumerating subsets of the smaller dimension (of
    the rows when [min_rows > 1]).  Ties go to the row subset with the
    smallest mask (bit [i] = row [i] of the enumerated side): the first
    strict maximum in ascending-mask order.  [row_set] and [col_set]
    are ascending; no ones gives the empty rectangle.  Cost: at most
    2^rows subsets, each one AND of a row's words into its parent's
    intersection, walked depth first with a bound that skips subtrees
    unable to reach the best area.
    @raise Invalid_argument when more than 20 rows would be
    enumerated. *)

val max_one_rectangle_greedy :
  Commx_util.Prng.t -> ?restarts:int -> Commx_util.Bitmat.t -> rect
(** Randomized greedy heuristic (row-seeded column intersection with
    local improvement); a lower bound witness on the true maximum. *)

val max_zero_rectangle_exact : ?min_rows:int -> Commx_util.Bitmat.t -> rect
(** Same, for all-zeros rectangles: {!max_one_rectangle_exact} of
    {!Commx_util.Bitmat.complement}. *)

val cover_lower_bound : Commx_util.Bitmat.t -> exact:bool -> float
(** log2 of the rectangle-partition lower bound
    [ones / max_one_rect + zeros / max_zero_rect]: every partition into
    monochromatic rectangles has at least that many parts, hence
    communication >= this value - 2 (Yao).  With [~exact:false] the
    greedy witnesses are used, giving a (possibly weaker but still
    valid... see note) estimate; with [~exact:true] enumeration is
    used.  Note: using a heuristic *large* rectangle makes the bound
    conservative only if it underestimates the max; since greedy
    returns a genuine rectangle it can only underestimate the maximum,
    which *overestimates* the bound — so [~exact:false] results are
    labelled estimates in the experiment tables, never certificates. *)

val count_ones_rectangle_rows :
  Commx_util.Bitmat.t -> int array -> int array
(** [count_ones_rectangle_rows m rows]: for the given row set, the
    columns all-ones on those rows (the maximal rectangle with exactly
    that row set). *)
