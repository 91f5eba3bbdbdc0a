(** Exact deterministic communication complexity of tiny functions.

    For truth matrices small enough to enumerate, the deterministic
    communication complexity itself — the min over ALL protocol trees
    of the worst-case depth, the quantity Theorem 1.1 is about — can
    be computed exactly by game-tree search: a submatrix costs 0 if
    monochromatic, otherwise [1 + min] over all ways one agent can
    split its side, of the [max] cost of the two parts.

    {2 The engine}

    The search core is engineered for the exponential workload
    (exhaustive protocol search is inherently brute force):

    - {b Packed subproblem keys.}  A subproblem is a (row set, column
      set) pair over the canonical matrix, packed into one native int
      — rows in the low {!max_side} bits, columns above them — so the
      memo key is a single word.
    - {b Transposition table.}  Memoization uses
      {!Commx_util.Txtable}: open addressing, linear probing,
      power-of-two capacity, optional memory budget with
      replace-on-collision.  Entries are fail-soft: either the exact
      cost of the subproblem or a certified lower bound discovered by
      a bounded search.
    - {b Canonicalization.}  Both the input matrix and every
      subproblem are canonicalized before lookup: duplicate rows and
      columns collapse to their lowest-index representative
      (CC-invariant: an agent can treat equal inputs identically), and
      the input is 0/1-complement-normalized to a zero-majority matrix
      (CC-invariant: leaf colors swap).  Structured instances (EQ, GT,
      threshold-like truth matrices) collapse massively.
    - {b Cost pruning.}  Alpha-beta–style: every node seeds its
      incumbent with the trivial upper bound (binary-subdivide the
      smaller side, one answer bit), a split's second child is skipped
      as soon as [1 + first child] meets the incumbent, and children
      are searched under the incumbent as a cost bound.  The root
      incumbent is additionally checked against a certified
      lower-bound {e portfolio} ({!lower_bound_portfolio}): GF(2)
      ranks + fooling sets ({!Rank_bound}, {!Fooling}), rational
      log-rank, and discrepancy ({!Discrepancy}) — so searches whose
      trivial protocol is provably optimal return without expanding a
      node, and telemetry records which bound won each root.
    - {b Interior rank cut.}  Every other node gets the GF(2) part of
      the same leaf-count argument: a depth-C protocol for a sub-board
      [M] has at least [rank M] 1-leaves and [rank (J - M)] 0-leaves,
      so a node with [ceil_log2 (rank M + rank (J - M))] at or above
      its search bound returns the bound unexpanded.  Part of
      [prune]; costs two in-place eliminations per table miss.
    - {b Word-level inner loop.}  Rows and columns of the canonical
      matrix live as packed native ints
      ({!Commx_util.Bitmat.packed_rows}), so monochromaticity,
      duplicate collapse and popcounts are word ops — the loop touches
      no per-bit accessor.

    Every optimization but the rank cut, which rides on [prune], is
    independently toggleable ({!config}) for ablation benchmarks
    (bench B7) and for property tests that the toggles are
    CC-invariant. *)

val max_side : int
(** Hard cap (20) on rows and on columns of the {e canonical} truth
    matrix — duplicate rows/columns of the input do not count against
    it.  [12x12] dense instances are comfortable; beyond that cost
    grows exponentially with the post-collapse dimensions, and
    18x18–20x20 instances are only reachable when the lower-bound
    portfolio prunes at (or near) the root. *)

exception
  Too_large of { rows : int; cols : int; limit : int }
    (** Raised when the canonical dimensions exceed [limit]
        (= {!max_side}); [rows] and [cols] are the {e offending}
        post-canonicalization dimensions, not the raw input shape.  A
        printer is registered, so the exception formats itself
        legibly. *)

exception
  Timed_out of { lower : int; upper : int; nodes : int }
    (** Raised by {!search} when its [?cancel] token fires mid-search:
        the cooperative poll inside the node-expansion loop observed
        the cancellation.  [lower] is the best {e certified} lower
        bound at that moment — the rank/fooling root bound, improved by
        a fail-soft lower-bound root entry if the (warm) transposition
        table holds one — [upper] the trivial upper bound, [nodes] the
        expansions spent (0 for a pooled search: its worker-local counts
        are lost).  The partial work is not wasted: entries learned
        before the deadline stay in a caller-owned [?table], so a repeat
        attempt resumes deeper.  A printer is registered. *)

type config = {
  table : bool;  (** memoize subproblems in the transposition table *)
  canonicalize : bool;
      (** collapse duplicate rows/columns per subproblem and
          complement-normalize the input *)
  prune : bool;
      (** seed incumbents with the trivial upper bound, bound child
          searches, cut second children, certify the root lower
          bound, and close every interior sub-board whose GF(2)-rank
          bound [ceil_log2 (rank M + rank (J - M))] already meets its
          search bound *)
  portfolio : bool;
      (** widen the certified root bound from rank/fooling alone to
          the full lower-bound portfolio ({!lower_bound_portfolio}):
          rational log-rank and discrepancy too, evaluated
          cheapest-first with early exit once the trivial upper bound
          is matched.  Only meaningful with [prune]. *)
  table_budget : int option;
      (** max transposition-table entries (power-of-two rounded);
          [None] = grow unbounded *)
}

val default_config : config
(** Everything on, unbounded table. *)

val reference_config : config
(** Everything off: the naive memo-free exhaustive recursion, kept as
    the oracle for CC-invariance property tests.  Only viable for
    matrices up to ~8x8. *)

type stats = {
  nodes : int;  (** interior search nodes expanded (not table hits) *)
  table_hits : int;
  table_misses : int;
  table_evictions : int;
  canon_rows : int;  (** canonical row count actually searched *)
  canon_cols : int;
  root_lower : int;  (** certified root lower bound (0 if unused) *)
  root_upper : int;  (** trivial upper bound on the canonical matrix *)
}

val key_tag_bits : int
(** Bits of tag space above the packed [(rmask, cmask)] in a
    transposition-table key (22). *)

val max_key_tag : int
(** Largest admissible [?key_tag]: [2^key_tag_bits - 1]. *)

val search :
  ?config:config ->
  ?pool:Commx_util.Pool.t ->
  ?table:Commx_util.Txtable.t ->
  ?key_tag:int ->
  ?cancel:Commx_util.Pool.Token.t ->
  Commx_util.Bitmat.t ->
  int * stats
(** [search m] is the exact deterministic CC of [m] (in bits, standard
    model: leaf rectangles monochromatic, both agents know the answer)
    together with search statistics.

    With [?pool], large searches fan their root moves out over the
    pool: one deque of root moves per pool worker, idle workers steal
    blocks from busy ones, and all workers share an {e atomic
    incumbent} — an improvement found anywhere tightens every other
    worker's pruning window on its next move.  Each worker keeps one
    transposition-table segment alive for the whole search, so subtree
    results warm across all the root moves that worker executes, own
    or stolen.  The returned {e value} is schedule-invariant
    (bit-identical at any [--jobs], asserted in CI); node and table
    {e statistics} depend on timing, so they feed the separate
    [exact_cc.steal_nodes] telemetry counter and leave the
    jobs-invariant [exact_cc.nodes]/hit/miss counters untouched.  A
    search without [?pool] is sequential, and its statistics are
    jobs-invariant by construction: this is the path the perf gate and
    the E14 primary columns run.

    With [?table], memoization goes through the {e caller-owned}
    table instead of a fresh private one (overriding [config.table]),
    and subproblem keys are salted with [?key_tag] (default 0) shifted
    above the mask bits: give each distinct canonical matrix its own
    tag (see {!canonical_key}) and one long-lived table serves many
    matrices without key collisions — this is how the serve daemon
    keeps its transposition table warm across requests.  A search
    against a warm table finds its root entry immediately and expands
    zero nodes.  The reported [table_*] statistics are deltas over
    this search.  Since {!Commx_util.Txtable} is not thread-safe, a
    shared table must be used from one domain at a time, and [?table]
    forces the sequential search path even when [?pool] is given.

    With [?cancel], the search polls the {!Commx_util.Pool.Token}
    every 1024 subproblem {e visits} — table hits included, so a
    hit-dominated search against a warm table still observes its
    deadline — and raises {!Timed_out} when the token fires; a token
    with a [~deadline] gives a per-request time budget at
    sub-millisecond granularity on dense boards.  If the warm table
    already holds an {e exact} root entry, the answer won the race and
    is returned normally.  Cancellation of a pooled search loses
    per-worker node counts ([nodes = 0] in the exception) but keeps the
    certified bounds.

    Search statistics are also accumulated into the [exact_cc.*]
    {!Commx_util.Telemetry} counters; a timed-out search publishes its
    partial statistics before raising.
    @raise Too_large when the canonical matrix exceeds {!max_side}.
    @raise Timed_out when [?cancel] fires before the value is proved.
    @raise Invalid_argument when [key_tag] is outside
    [\[0, max_key_tag\]]. *)

val complexity : Commx_util.Bitmat.t -> int
(** [search] with {!default_config}, value only.
    @raise Too_large when the canonical matrix exceeds {!max_side}. *)

val bounded : Commx_util.Bitmat.t -> bound:int -> int
(** [bounded m ~bound] is [min (complexity m, bound)], computed by one
    sequential {!default_config} search of the canonical board with
    [bound] as its search bound and [1] as its root lower bound — no
    root portfolio.  This is the fail-soft contract every interior
    subproblem of {!search} answers under, exposed so it can be tested
    directly: a node cut by a certified lower bound must report
    [bound], never the lower bound itself.
    @raise Too_large when the canonical matrix exceeds {!max_side}.
    @raise Invalid_argument when [bound < 0]. *)

val complexity_tm : ('a, 'b) Truth_matrix.t -> int

val lower_bound_portfolio : Commx_util.Bitmat.t -> (string * int) list
(** Every certified lower bound the engine's root check draws from,
    each evaluated on the canonical matrix and each individually
    [<= exact CC] (property [exact_cc.lb_portfolio_sound]):
    [("rank_fooling", GF(2)-rank/fooling-set bound)],
    [("log_rank", rational log-rank of the matrix and complement)],
    [("discrepancy", log2 (1/disc) from {!Discrepancy})].  Unlike
    {!search} this puts no cheapest-first early exit in the way — all
    members are computed — so it is the bench/experiment view of the
    portfolio.  Never raises on oversize boards, but discrepancy and
    the word-prime rank eliminations grow exponentially/cubically with
    size; keep it to boards the engine itself admits. *)

val canonical_dims : Commx_util.Bitmat.t -> int * int
(** [(rows, cols)] of the canonical matrix — the dimensions
    {!Too_large} is judged on — without searching.  Cheap (one
    duplicate-collapse pass); the serve daemon's admission check uses
    it to reject oversize [exact_cc] requests before they reach a
    worker.  Never raises. *)

val canonical_key : Commx_util.Bitmat.t -> string
(** Content address of the canonical board: {!Commx_util.Bitmat.key}
    (dimensions plus fixed-width hex row words) of the matrix {e after}
    duplicate collapse and complement normalization.  Two inputs share
    a key exactly when the engine would search the same canonical
    matrix, so structurally-equal queries alias — the serve daemon
    keys its result cache and its per-matrix table tags on this.  Never raises, even above
    {!max_side}. *)

val optimal_is_sandwiched : Commx_util.Bitmat.t -> bool
(** Checks [certified lower bounds <= exact CC <= trivial upper bound]
    — the consistency statement tying the whole bound machinery
    together (used by tests). *)
