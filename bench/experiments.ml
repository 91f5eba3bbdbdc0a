(* Experiment drivers E1-E15 (see DESIGN.md section 4 and
   EXPERIMENTS.md).  Each prints one or more tables in the format of
   the claims the paper makes AND returns a {!report} of the same
   measurements as JSON rows; EXPERIMENTS.md records the paper-vs-
   measured comparison and the harness writes BENCH_E<id>.json
   artifacts from the reports (see bench/main.ml).

   Experiments receive a {!ctx} carrying the domain pool.  The
   embarrassingly parallel stages (exhaustive enumeration in E2/E8,
   Monte-Carlo sweeps in E3, random partitions in E9, independent
   game-tree searches in E14/E15) fan out over the pool; every
   randomized stage draws from per-item generators pre-split from the
   experiment's master seed, so results are bit-identical at any
   --jobs. *)

module B = Commx_bigint.Bigint
module Q = Commx_bigint.Rational
module Zm = Commx_linalg.Zmatrix
module Sub = Commx_linalg.Subspace
module Prng = Commx_util.Prng
module Tel = Commx_util.Telemetry
module Stats = Commx_util.Stats
module Tab = Commx_util.Tab
module Json = Commx_util.Json
module Pool = Commx_util.Pool
module Protocol = Commx_comm.Protocol
module Randomized = Commx_comm.Randomized
module Tm = Commx_comm.Truth_matrix
module Rank_bound = Commx_comm.Rank_bound
module Rect = Commx_comm.Rectangle
module Fooling = Commx_comm.Fooling
module Partition = Commx_comm.Partition
module Params = Commx_core.Params
module H = Commx_core.Hard_instance
module L32 = Commx_core.Lemma32
module L35 = Commx_core.Lemma35
module Tr = Commx_core.Truth_restricted
module L39 = Commx_core.Lemma39
module Padding = Commx_core.Padding
module Red = Commx_core.Reductions
module Bounds = Commx_core.Bounds
module Halves = Commx_protocols.Halves
module Trivial = Commx_protocols.Trivial
module Fingerprint = Commx_protocols.Fingerprint
module Identity = Commx_protocols.Identity
module Mat_verify = Commx_protocols.Mat_verify
module Solvability = Commx_protocols.Solvability
module Span = Commx_protocols.Span
module Layout = Commx_vlsi.Layout
module Tradeoff = Commx_vlsi.Tradeoff

(* ------------------------------------------------------------------ *)
(* Harness plumbing: execution context and machine-readable reports    *)
(* ------------------------------------------------------------------ *)

(* [tick] is the cooperative cancellation poll: sequential sections
   (the per-(n,k) sweeps that never enter the pool) call it once per
   outer iteration so a supervised timeout can stop them between
   configurations; pool batches poll the same ambient token between
   chunks on their own.  It raises [Pool.Cancelled] when the
   supervisor's deadline has passed, and is a no-op otherwise. *)
type ctx = { pool : Pool.t; jobs : int; tick : unit -> unit }

type report = {
  id : string;
  title : string;
  params : (string * Json.t) list;  (* experiment-level parameters *)
  rows : Json.t list;               (* one object per measured row *)
  fits : (string * Json.t) list;    (* fitted constants, slopes, R^2 *)
}

let section id title =
  Printf.printf "\n===== %s: %s =====\n" id title

let fmt = Tab.fmt_float
let fint = Tab.fmt_int_thousands

let jint i = Json.Int i
let jfloat f = Json.Float f
let jstr s = Json.String s
let jbool b = Json.Bool b
let row fields = Json.Obj fields

let sweep_nk = [ (5, 2); (5, 3); (5, 4); (7, 2); (7, 3); (9, 2); (9, 3); (11, 2); (13, 2) ]

let json_sweep sweep =
  Json.List (List.map (fun (n, k) -> row [ ("n", jint n); ("k", jint k) ]) sweep)

let mixed_pool = Commx_core.Workloads.mixed_pool

(* Phase accounting (Tel.with_phase): every experiment tags its stages
   as "generate" (instance construction), "enumerate" (exhaustive /
   Monte-Carlo sweeps), or "verify" (checking claims against ground
   truth), so artifacts and --metrics break wall-clock down uniformly.
   Durations are wall-clock-ish: unlike counters they are NOT expected
   to be identical across --jobs values. *)
let gen f = Tel.with_phase "generate" f
let enum f = Tel.with_phase "enumerate" f
let verify f = Tel.with_phase "verify" f

(* ------------------------------------------------------------------ *)
(* E1: Theorem 1.1 upper bound — trivial protocol cost = 2 k n^2       *)
(* ------------------------------------------------------------------ *)

let e1 ctx =
  let title = "Theorem 1.1 upper bound: deterministic cost Theta(k n^2)" in
  section "E1" title;
  let g = Prng.create 101 in
  let tab =
    Tab.make
      ~caption:
        "Trivial protocol on hard instances (bits measured by the channel)"
      ~header:[ "n"; "k"; "bits"; "k*n^2"; "bits/(k n^2)" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  let points = ref [] in
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      ctx.tick ();
      let p = Params.make ~n ~k in
      let m = gen (fun () -> H.build_m p (H.random_free g p)) in
      let a, b = Halves.split_pi0 m in
      let _, bits =
        verify (fun () -> Protocol.execute (Trivial.singularity ~k) a b)
      in
      points := (float_of_int (k * n * n), float_of_int bits) :: !points;
      rows :=
        row
          [ ("n", jint n); ("k", jint k); ("bits", jint bits);
            ("kn2", jint (k * n * n));
            ("ratio", jfloat (float_of_int bits /. float_of_int (k * n * n))) ]
        :: !rows;
      Tab.add_row tab
        [ string_of_int n; string_of_int k; fint bits; fint (k * n * n);
          fmt (float_of_int bits /. float_of_int (k * n * n)) ])
    sweep_nk;
  Tab.print tab;
  let c, r2 = Stats.proportional_fit (Array.of_list !points) in
  Printf.printf "fit: bits = %.3f * k n^2   (R^2 = %.6f)\n" c r2;
  Printf.printf
    "paper: Theta(k n^2); trivial protocol achieves exactly 2 k n^2.\n";
  { id = "E1"; title;
    params = [ ("seed", jint 101); ("sweep", json_sweep sweep_nk) ];
    rows = List.rev !rows;
    fits = [ ("bits_per_kn2", jfloat c); ("r2", jfloat r2) ] }

(* ------------------------------------------------------------------ *)
(* E2: Theorem 1.1 lower bound — exact certificates on tiny truth      *)
(* matrices (claims 2a / 2b machinery)                                 *)
(* ------------------------------------------------------------------ *)

let tiny_singularity_tm ~k =
  let range = 1 lsl k in
  let halves =
    List.concat_map
      (fun a -> List.init range (fun b -> (a, b)))
      (List.init range (fun a -> a))
  in
  Tm.build halves halves (fun (a, c) (b, d) -> (a * d) - (b * c) = 0)

let e2 ctx =
  let title =
    "Theorem 1.1 lower bound: exact certificates on enumerable truth \
     matrices"
  in
  section "E2" title;
  let tab =
    Tab.make
      ~caption:
        "Singularity of 2x2 matrices of k-bit entries under pi_0; all \
         bounds in bits (certificates are unconditional for every \
         protocol)"
      ~header:
        [ "k"; "matrix"; "ones"; "max 1-rect"; "cover>="; "log-rank>=";
          "fooling>="; "upper" ]
      [ Tab.Right; Tab.Left; Tab.Right; Tab.Right; Tab.Right; Tab.Right;
        Tab.Right; Tab.Right ]
  in
  (* Each k is an independent enumeration of the full instance space:
     fan the three out over the pool (k=3 analyzes a 64x64 matrix). *)
  let per_k =
    enum (fun () ->
        Pool.parallel_map ctx.pool
          (fun k ->
            let tm = tiny_singularity_tm ~k in
            let exact = k <= 2 in
            let report = Rank_bound.analyze tm ~exact_rect:exact in
            let m = Tm.to_bitmat tm in
            let rect_area =
              if exact then Rect.area (Rect.max_one_rectangle_exact m)
              else
                let g = Prng.create 7 in
                Rect.area (Rect.max_one_rectangle_greedy g m)
            in
            (k, Tm.rows tm, Tm.cols tm, exact, report, rect_area))
          [| 1; 2; 3 |])
  in
  let rows = ref [] in
  Array.iter
    (fun (k, trows, tcols, exact, report, rect_area) ->
      rows :=
        row
          [ ("kind", jstr "tiny"); ("k", jint k); ("rows", jint trows);
            ("cols", jint tcols); ("exact_rect", jbool exact);
            ("ones", jint report.Rank_bound.ones);
            ("max_one_rect", jint rect_area);
            ("cover_bits", jfloat report.Rank_bound.cover_bits);
            ("log_rank", jfloat report.Rank_bound.log_rank);
            ("fooling_bits", jfloat report.Rank_bound.fooling_bits);
            ("upper_bits", jint (2 * k)) ]
        :: !rows;
      Tab.add_row tab
        [ string_of_int k;
          Printf.sprintf "%dx%d" trows tcols;
          fint report.Rank_bound.ones;
          (if exact then string_of_int rect_area
           else Printf.sprintf "~%d" rect_area);
          (if exact then fmt report.Rank_bound.cover_bits
           else "~" ^ fmt report.Rank_bound.cover_bits);
          fmt report.Rank_bound.log_rank;
          fmt report.Rank_bound.fooling_bits;
          string_of_int (2 * k) ])
    per_k;
  Tab.print tab;
  (* The RESTRICTED truth matrix of Section 3 itself: all q^(half^2)
     rows, sampled columns.  (n=5, k=3) is the smallest setting with
     e_width >= 1; at (n=5, k=2) the E block is empty and all rows
     coincide — the construction needs E to differentiate rows. *)
  ctx.tick ();
  let g = Prng.create 102 in
  let p = Params.make ~n:5 ~k:3 in
  let rtm = gen (fun () -> Tr.sampled_truth_matrix g p ~columns:1200) in
  let bm = Tm.to_bitmat rtm in
  let ones = Commx_util.Bitmat.count_ones bm in
  let per_row = Tm.ones_per_row rtm in
  let populated = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 per_row in
  let max_row = Array.fold_left max 0 per_row in
  let gf2 = verify (fun () -> Commx_comm.Rank_bound.gf2_rank bm) in
  let rect = verify (fun () -> Rect.max_one_rectangle_greedy g bm) in
  rows :=
    row
      [ ("kind", jstr "restricted"); ("n", jint 5); ("k", jint 3);
        ("rows", jint (Tm.rows rtm)); ("cols", jint (Tm.cols rtm));
        ("ones", jint ones); ("density", jfloat (Tm.density rtm));
        ("populated_rows", jint populated); ("max_ones_per_row", jint max_row);
        ("gf2_rank", jint gf2);
        ("log_rank", jfloat (log (float_of_int gf2) /. log 2.0));
        ("greedy_rect_rows", jint (Array.length rect.Rect.row_set));
        ("greedy_rect_cols", jint (Array.length rect.Rect.col_set));
        ("greedy_rect_ones", jint (Rect.area rect)) ]
    :: !rows;
  Printf.printf
    "restricted truth matrix (n=5, k=3): %d rows (all C) x %d sampled \
     columns\n\
    \  ones: %d (density %.5f); %d/%d rows hit by the sample (max %d \
     ones/row) — claim 2a guarantees ones in EVERY row over the full \
     column space, which E7 verifies constructively\n\
    \  GF(2) rank: %d -> log-rank >= %.2f bits on the restricted \
     problem alone\n\
    \  largest 1-rectangle found (greedy): %d rows x %d cols = %d of %d \
     ones (claim 2b: no rectangle dominates the ones)\n"
    (Tm.rows rtm) (Tm.cols rtm) ones
    (Tm.density rtm)
    populated (Tm.rows rtm) max_row gf2
    (log (float_of_int gf2) /. log 2.0)
    (Array.length rect.Rect.row_set)
    (Array.length rect.Rect.col_set)
    (Rect.area rect) ones;
  Printf.printf
    "paper: claims (2a)/(2b) force d(f) so large that C >= Omega(k n^2);\n\
     here the certified bounds grow with k and sit within the 2k-bit \
     trivial upper bound.\n";
  { id = "E2"; title;
    params = [ ("seed", jint 102); ("sampled_columns", jint 1200) ];
    rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E3: randomized contrast — fingerprint cost and error                *)
(* ------------------------------------------------------------------ *)

let e3 ctx =
  let title =
    "Randomized contrast (Leighton): O(n^2 max(log n, log k)) bits"
  in
  section "E3" title;
  let g = Prng.create 103 in
  let epsilon = 0.05 in
  let seeds = 40 in
  let tab =
    Tab.make
      ~caption:
        (Printf.sprintf
           "Fingerprint protocol, epsilon = %.2f (error measured on \
            nonsingular instances, %d seeds each)"
           epsilon seeds)
      ~header:
        [ "n"; "k"; "bits"; "n^2 max(lg n,lg k)"; "ratio"; "trivial";
          "saving"; "err" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right;
        Tab.Right; Tab.Right ]
  in
  let configs =
    [| (5, 2); (5, 4); (5, 8); (5, 16); (5, 32); (5, 64); (7, 2); (7, 8);
       (9, 2); (9, 16) |]
  in
  (* Monte-Carlo sweep: each (n, k) runs 6 instance draws x 40 seeds of
     the fingerprint protocol — independent across configs, so map them
     over the pool with per-config generators. *)
  let measured =
    verify (fun () ->
    Pool.parallel_map_seeded ctx.pool g
      (fun g (n, k) ->
        let p = Params.make ~n ~k in
        let rp = Fingerprint.singularity ~n ~k ~epsilon in
        let cost = Fingerprint.cost ~n ~k ~epsilon in
        let shape = Fingerprint.expected_shape ~n ~k in
        let trivial = Trivial.exact_cost ~n ~k in
        let nonsingular =
          List.filter (fun m -> not (Zm.is_singular m)) (mixed_pool g p ~count:6)
        in
        let err =
          match nonsingular with
          | [] -> Float.nan
          | ms ->
              Randomized.worst_input_error g rp
                ~spec:(fun a b -> Zm.is_singular (Halves.join a b))
                ~seeds
                (List.map Halves.split_pi0 ms)
        in
        (n, k, cost, shape, trivial, err))
      configs)
  in
  let rows = ref [] in
  Array.iter
    (fun (n, k, cost, shape, trivial, err) ->
      rows :=
        row
          [ ("n", jint n); ("k", jint k); ("bits", jint cost);
            ("shape", jfloat shape);
            ("ratio", jfloat (float_of_int cost /. shape));
            ("trivial_bits", jint trivial);
            ("saving", jfloat (float_of_int trivial /. float_of_int cost));
            ("err", jfloat err) ]
        :: !rows;
      Tab.add_row tab
        [ string_of_int n; string_of_int k; fint cost; fmt shape;
          fmt (float_of_int cost /. shape);
          fint trivial;
          Tab.fmt_ratio (float_of_int trivial /. float_of_int cost);
          fmt ~digits:3 err ])
    measured;
  Tab.print tab;
  (* Why a randomized shortcut exists at all: discrepancy.  Singularity
     truth matrices have high discrepancy (big monochromatic chunks —
     randomized-easy); contrast inner product, the canonical
     low-discrepancy randomized-HARD function. *)
  let module Disc = Commx_comm.Discrepancy in
  let sing1 = Tm.to_bitmat (tiny_singularity_tm ~k:1) in
  let sing2 = Tm.to_bitmat (tiny_singularity_tm ~k:2) in
  let ip3 = Disc.inner_product_matrix ~m:3 in
  let ip4 = Disc.inner_product_matrix ~m:4 in
  let disc_sing1 = enum (fun () -> Disc.discrepancy_exact sing1) in
  let disc_sing2 = enum (fun () -> Disc.discrepancy_exact sing2) in
  let disc_ip3 = enum (fun () -> Disc.discrepancy_exact ip3) in
  let disc_ip4 = enum (fun () -> Disc.discrepancy_exact ip4) in
  let rlb_sing2 = Disc.randomized_lower_bound sing2 ~epsilon:0.1 in
  let rlb_ip4 = Disc.randomized_lower_bound ip4 ~epsilon:0.1 in
  Printf.printf
    "discrepancy (exact): singularity k=1: %.3f, k=2: %.3f  vs  inner \
     product m=3: %.3f, m=4: %.3f\n\
     randomized lower bounds at eps=0.1: sing k=2: %.2f bits; IP m=4: \
     %.2f bits — singularity's high discrepancy leaves room for the \
     fingerprint shortcut, IP has none.\n"
    disc_sing1 disc_sing2 disc_ip3 disc_ip4 rlb_sing2 rlb_ip4;
  Printf.printf
    "paper: probabilistic complexity O(n^2 max(log n, log k)); the \
     deterministic/randomized gap grows with k (saving column) and the \
     one-sided error stays below epsilon.\n";
  { id = "E3"; title;
    params = [ ("seed", jint 103); ("epsilon", jfloat epsilon);
               ("seeds_per_input", jint seeds); ("instances", jint 6) ];
    rows = List.rev !rows;
    fits =
      [ ("discrepancy_sing_k1", jfloat disc_sing1);
        ("discrepancy_sing_k2", jfloat disc_sing2);
        ("discrepancy_ip_m3", jfloat disc_ip3);
        ("discrepancy_ip_m4", jfloat disc_ip4);
        ("rand_lower_sing_k2", jfloat rlb_sing2);
        ("rand_lower_ip_m4", jfloat rlb_ip4) ] }

(* ------------------------------------------------------------------ *)
(* E4: Corollary 1.2 — reductions (a)-(e)                              *)
(* ------------------------------------------------------------------ *)

let e4 ctx =
  let title = "Corollary 1.2: det / rank / QR / SVD / LUP reductions" in
  section "E4" title;
  let g = Prng.create 104 in
  let problems =
    [ ("(a) determinant", Red.singular_via_det);
      ("(a') charpoly constant coeff", Red.singular_via_charpoly);
      ("(b) rank", Red.singular_via_rank);
      ("(b') Smith normal form", Red.singular_via_smith);
      ("(c) QR structure", Red.singular_via_qr);
      ("(d) SVD (float Jacobi)", Red.singular_via_svd);
      ("(d') SVD structure (exact, charpoly of M^T M)", Red.singular_via_svd_exact);
      ("(e) LUP", Red.singular_via_lup);
      ("(e') LUP nonzero structure", Red.singular_via_lup_structure) ]
  in
  let tab =
    Tab.make
      ~caption:
        "Each harder problem's output decides singularity (agreement with \
         ground truth over mixed pools; bits = same trivial protocol)"
      ~header:[ "problem"; "instances"; "agree"; "bits (n=7,k=2)" ]
      [ Tab.Left; Tab.Right; Tab.Right; Tab.Right ]
  in
  let p = Params.make ~n:7 ~k:2 in
  let pool = gen (fun () -> mixed_pool g p ~count:30) in
  let rows = ref [] in
  List.iter
    (fun (name, via) ->
      ctx.tick ();
      let agree =
        verify (fun () -> List.for_all (fun m -> via m = Zm.is_singular m) pool)
      in
      rows :=
        row
          [ ("problem", jstr name); ("instances", jint (List.length pool));
            ("agree", jbool agree);
            ("bits", jint (Trivial.exact_cost ~n:7 ~k:2)) ]
        :: !rows;
      Tab.add_row tab
        [ name; string_of_int (List.length pool);
          (if agree then "30/30" else "MISMATCH");
          fint (Trivial.exact_cost ~n:7 ~k:2) ])
    problems;
  Tab.print tab;
  Printf.printf
    "paper: all inherit the Theta(k n^2) bound; (c)-(e) even when only \
     the nonzero structure of the factors is required.\n";
  { id = "E4"; title;
    params = [ ("seed", jint 104); ("n", jint 7); ("k", jint 2);
               ("pool_size", jint 30) ];
    rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E5: Corollary 1.3 — solvability                                     *)
(* ------------------------------------------------------------------ *)

let e5 ctx =
  let title = "Corollary 1.3: linear-system solvability" in
  section "E5" title;
  let g = Prng.create 105 in
  let tab =
    Tab.make
      ~caption:
        "Hard instance M -> system (M', b); solvability answer vs \
         singularity ground truth"
      ~header:[ "n"; "k"; "instances"; "agree"; "solv. protocol bits" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      ctx.tick ();
      let p = Params.make ~n ~k in
      let trials = 20 in
      let ok = ref 0 in
      verify (fun () ->
          for _ = 1 to trials do
            let f = H.random_free g p in
            let m = H.build_m p f in
            if Red.singular_via_solvability p f = Zm.is_singular m then incr ok
          done);
      (* protocol bits: trivial on the augmented (2n x 2n+1) system *)
      let m = H.build_m p (H.random_free g p) in
      let m', b = Red.solvability_instance m in
      let alice, bob = Solvability.split m' b in
      let _, bits = Protocol.execute (Solvability.trivial ~k) alice bob in
      rows :=
        row
          [ ("n", jint n); ("k", jint k); ("trials", jint trials);
            ("agree", jint !ok); ("bits", jint bits) ]
        :: !rows;
      Tab.add_row tab
        [ string_of_int n; string_of_int k; string_of_int trials;
          Printf.sprintf "%d/%d" !ok trials; fint bits ])
    [ (5, 2); (7, 2); (7, 3); (9, 2) ];
  Tab.print tab;
  Printf.printf "paper: solvability also costs Theta(k n^2).\n";
  { id = "E5"; title; params = [ ("seed", jint 105) ];
    rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E6: Lemma 3.2                                                       *)
(* ------------------------------------------------------------------ *)

let e6 ctx =
  let title = "Lemma 3.2: M singular <=> B.u in Span(A)" in
  section "E6" title;
  let g = Prng.create 106 in
  let tab =
    Tab.make
      ~caption:"Criterion vs exact rank computation on random free blocks"
      ~header:[ "n"; "k"; "trials"; "agree"; "singular frac" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      ctx.tick ();
      let p = Params.make ~n ~k in
      let trials = 50 in
      let agree = ref 0 and singular = ref 0 in
      verify (fun () ->
      for t = 1 to trials do
        (* Random free blocks are almost never singular, so exercise
           both sides: completions (singular by Lemma 3.5a), perturbed
           completions, and raw randoms. *)
        let f =
          let raw = H.random_free g p in
          match t mod 3 with
          | 0 -> raw
          | 1 -> (L35.complete p ~c:raw.H.c ~e:raw.H.e).L35.free
          | _ ->
              let w = (L35.complete p ~c:raw.H.c ~e:raw.H.e).L35.free in
              let y = Array.copy w.H.y in
              y.(0) <- B.erem (B.add y.(0) B.one) p.Params.q;
              { w with H.y }
        in
        let truth = L32.is_singular_direct (H.build_m p f) in
        if truth then incr singular;
        if L32.criterion p f = truth then incr agree
      done);
      rows :=
        row
          [ ("n", jint n); ("k", jint k); ("trials", jint trials);
            ("agree", jint !agree); ("singular", jint !singular) ]
        :: !rows;
      Tab.add_row tab
        [ string_of_int n; string_of_int k; string_of_int trials;
          Printf.sprintf "%d/%d" !agree trials;
          fmt (float_of_int !singular /. float_of_int trials) ])
    sweep_nk;
  Tab.print tab;
  { id = "E6"; title;
    params = [ ("seed", jint 106); ("sweep", json_sweep sweep_nk) ];
    rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E7: Lemma 3.5(a) completion                                         *)
(* ------------------------------------------------------------------ *)

let e7 ctx =
  let title = "Lemma 3.5(a): completion algorithm (given C, E find D, y)" in
  section "E7" title;
  let g = Prng.create 107 in
  let tab =
    Tab.make
      ~caption:
        "Completion success = D, y computed, A.x = B.u verified, M \
         singular (exact)"
      ~header:[ "n"; "k"; "trials"; "success" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      ctx.tick ();
      let p = Params.make ~n ~k in
      let trials = 50 in
      let ok = ref 0 in
      verify (fun () ->
          for _ = 1 to trials do
            let f = H.random_free g p in
            let w = L35.complete p ~c:f.H.c ~e:f.H.e in
            if L35.check_witness p w then incr ok
          done);
      rows :=
        row
          [ ("n", jint n); ("k", jint k); ("trials", jint trials);
            ("success", jint !ok) ]
        :: !rows;
      Tab.add_row tab
        [ string_of_int n; string_of_int k; string_of_int trials;
          Printf.sprintf "%d/%d" !ok trials ])
    sweep_nk;
  Tab.print tab;
  Printf.printf "paper: completion exists for ALL (C, E) — rate must be 1.\n";
  { id = "E7"; title;
    params = [ ("seed", jint 107); ("sweep", json_sweep sweep_nk) ];
    rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E8: Lemmas 3.4 / 3.6 / 3.7                                          *)
(* ------------------------------------------------------------------ *)

let e8 ctx =
  let title = "Lemmas 3.4 / 3.6 / 3.7: the counting machinery" in
  section "E8" title;
  let rows = ref [] in
  (* Lemma 3.4: distinct spans — exhaustive over all q^(half^2) C
     instances; the two settings enumerate independently. *)
  let tab34 =
    Tab.make
      ~caption:"Lemma 3.4: distinct Span(A) per C instance (exhaustive)"
      ~header:[ "n"; "k"; "C instances q^(half^2)"; "distinct spans"; "all distinct" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  let l34 =
    enum (fun () ->
        Pool.parallel_map ctx.pool
          (fun (n, k) ->
            let p = Params.make ~n ~k in
            let all, distinct = Tr.lemma34_all_spans_distinct p in
            (n, k, Tr.count_c p, distinct, all))
          [| (5, 2); (5, 3) |])
  in
  Array.iter
    (fun (n, k, count, distinct, all) ->
      rows :=
        row
          [ ("lemma", jstr "3.4"); ("n", jint n); ("k", jint k);
            ("c_instances", jint count); ("distinct_spans", jint distinct);
            ("all_distinct", jbool all) ]
        :: !rows;
      Tab.add_row tab34
        [ string_of_int n; string_of_int k; fint count;
          fint distinct; (if all then "yes" else "NO") ])
    l34;
  Tab.print tab34;
  (* Lemma 3.6: intersection dimensions — each r runs independent
     random trials, so fan the r values out with per-r generators. *)
  let g = Prng.create 108 in
  let tab36 =
    Tab.make
      ~caption:
        "Lemma 3.6: dim of the intersection of r random distinct spans \
         (n=7, k=2; ambient dim n=7, single span dim n-1=6; 5 trials \
         each, mean)"
      ~header:[ "r"; "mean dim"; "min"; "max" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  let p = Params.make ~n:7 ~k:2 in
  let l36 =
    enum (fun () ->
        Pool.parallel_map_seeded ctx.pool g
          (fun g r -> (r, Tr.lemma36_intersection_dims g p ~r ~trials:5))
          [| 1; 2; 4; 8; 16 |])
  in
  Array.iter
    (fun (r, dims) ->
      let fdims = Array.map float_of_int dims in
      let lo, hi = Stats.min_max fdims in
      rows :=
        row
          [ ("lemma", jstr "3.6"); ("r", jint r);
            ("mean_dim", jfloat (Stats.mean fdims));
            ("min_dim", jfloat lo); ("max_dim", jfloat hi) ]
        :: !rows;
      Tab.add_row tab36
        [ string_of_int r; fmt (Stats.mean fdims); fmt ~digits:0 lo;
          fmt ~digits:0 hi ])
    l36;
  Tab.print tab36;
  (* Lemma 3.5(b): per-row one-counts — exact where the agent-2 space
     is enumerable; the two sampled rows enumerate independently. *)
  let p52 = Params.make ~n:5 ~k:2 in
  let c1 = (H.random_free g p52).H.c in
  let c2 = (H.random_free g p52).H.c in
  let l35b =
    enum (fun () ->
        Pool.parallel_map ctx.pool
          (fun c -> Tr.lemma35b_count_ones_exact p52 ~c)
          [| c1; c2 |])
  in
  let ones1, total = l35b.(0) in
  let ones2, _ = l35b.(1) in
  rows :=
    row
      [ ("lemma", jstr "3.5b-exact"); ("n", jint 5); ("k", jint 2);
        ("total", jint total); ("ones_row1", jint ones1);
        ("ones_row2", jint ones2) ]
    :: !rows;
  Printf.printf
    "Lemma 3.5(b) exact at (n=5, k=2): enumerating ALL %s agent-2 \
     assignments: %s ones per row (two sampled rows agree: %b; at this \
     degenerate e_width=0 setting all rows coincide).  Bounds: >= 1 \
     (claim 2a via completion), <= q^((n^2-1)/2) = %s.\n"
    (fint total) (fint ones1) (ones1 = ones2)
    (fint (Commx_util.Combi.power 3 12));
  let p53 = Params.make ~n:5 ~k:3 in
  let c3 = (H.random_free g p53).H.c in
  let s_ones, s_total =
    enum (fun () -> Tr.lemma35b_count_ones_sampled g p53 ~c:c3 ~trials:40000)
  in
  rows :=
    row
      [ ("lemma", jstr "3.5b-sampled"); ("n", jint 5); ("k", jint 3);
        ("trials", jint s_total); ("ones", jint s_ones) ]
    :: !rows;
  Printf.printf
    "Lemma 3.5(b) sampled at (n=5, k=3): %d / %d singular (fraction \
     %.5f) — sparse but populated, as the claim requires.\n"
    s_ones s_total
    (float_of_int s_ones /. float_of_int s_total);
  (* Lemma 3.7: projected fingerprints carried by 1-rectangle columns —
     independent column samples per rectangle size r. *)
  let all_cs = List.init 3 (fun _ -> (H.random_free g p).H.c) in
  let tab37 =
    Tab.make
      ~caption:
        "Lemma 3.7: distinct projected fingerprints p(B.u) = E.w among \
         2000 sampled columns of a 1-rectangle spanning r rows (n=7, \
         k=2; more rows -> fewer admissible columns)"
      ~header:[ "rectangle rows r"; "distinct projections" ]
      [ Tab.Right; Tab.Right ]
  in
  let l37 =
    enum (fun () ->
        Pool.parallel_map_seeded ctx.pool g
          (fun g r ->
            let cs = List.filteri (fun i _ -> i < r) all_cs in
            (r, Tr.lemma37_projected_count g p ~cs ~samples:2000))
          [| 1; 2; 3 |])
  in
  Array.iter
    (fun (r, count) ->
      rows :=
        row
          [ ("lemma", jstr "3.7"); ("rect_rows", jint r);
            ("distinct_projections", jint count) ]
        :: !rows;
      Tab.add_row tab37 [ string_of_int r; fint count ])
    l37;
  Tab.print tab37;
  Printf.printf
    "paper: 3.4 exact equality, 3.6 dimension collapse with r, 3.7 \
     projection-limited columns — all reproduced.\n";
  { id = "E8"; title; params = [ ("seed", jint 108) ];
    rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E9: Lemma 3.9 proper partitions                                     *)
(* ------------------------------------------------------------------ *)

let e9 ctx =
  let title = "Lemma 3.9: every even partition can be made proper" in
  section "E9" title;
  let g = Prng.create 109 in
  let tab =
    Tab.make
      ~caption:
        "Randomized greedy transform over random even partitions of the \
         (2n)^2 k input bits"
      ~header:
        [ "n"; "k"; "partitions"; "already proper"; "transformed"; "failed" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      ctx.tick ();
      let p = Params.make ~n ~k in
      let dim = 2 * n in
      let total = 60 in
      (* Each partition draw + greedy transform is independent: one
         generator per trial, split deterministically from the master. *)
      let outcomes =
        gen (fun () ->
            Pool.parallel_map_seeded ctx.pool g
              (fun g () ->
                let partition = Partition.random_even g (dim * dim * k) in
                if L39.is_proper p partition then `Already
                else
                  match L39.find_transform g p partition with
                  | Some t
                    when L39.is_proper p (L39.apply_transform p partition t) ->
                      `Transformed
                  | _ -> `Failed)
              (Array.make total ()))
      in
      let count v = Array.fold_left (fun a o -> if o = v then a + 1 else a) 0 outcomes in
      let already = count `Already
      and transformed = count `Transformed
      and failed = count `Failed in
      rows :=
        row
          [ ("n", jint n); ("k", jint k); ("partitions", jint total);
            ("already_proper", jint already); ("transformed", jint transformed);
            ("failed", jint failed) ]
        :: !rows;
      Tab.add_row tab
        [ string_of_int n; string_of_int k; string_of_int total;
          string_of_int already; string_of_int transformed;
          string_of_int failed ])
    [ (5, 2); (7, 2); (9, 2); (7, 3) ];
  Tab.print tab;
  Printf.printf "paper: failure count must be 0 (the lemma is universal).\n";
  { id = "E9"; title;
    params = [ ("seed", jint 109); ("partitions_per_config", jint 60) ];
    rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E10: VLSI area-time consequences                                    *)
(* ------------------------------------------------------------------ *)

let e10 ctx =
  let title = "VLSI: AT^2 = Omega(I^2) and the Chazelle-Monier comparison" in
  section "E10" title;
  let tab =
    Tab.make
      ~caption:"Lower-bound comparison (arbitrary layouts vs CM boundary model)"
      ~header:
        [ "n"; "k"; "I=kn^2"; "AT^2 >="; "our T >="; "CM T >="; "our AT >=";
          "CM AT >=" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right;
        Tab.Right; Tab.Right ]
  in
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      ctx.tick ();
      let r = verify (fun () -> Tradeoff.bound_row ~n ~k) in
      rows :=
        row
          [ ("kind", jstr "bound"); ("n", jint n); ("k", jint k);
            ("info_bits", jfloat r.Tradeoff.info);
            ("at2_bound", jfloat r.Tradeoff.at2_bound);
            ("our_t", jfloat r.Tradeoff.our_t);
            ("cm_t", jfloat r.Tradeoff.cm_t);
            ("our_at", jfloat r.Tradeoff.our_at);
            ("cm_at", jfloat r.Tradeoff.cm_at) ]
        :: !rows;
      Tab.add_row tab
        [ string_of_int n; string_of_int k; fmt ~digits:0 r.Tradeoff.info;
          fmt ~digits:0 r.Tradeoff.at2_bound; fmt ~digits:1 r.Tradeoff.our_t;
          fmt ~digits:0 r.Tradeoff.cm_t; fmt ~digits:0 r.Tradeoff.our_at;
          fmt ~digits:0 r.Tradeoff.cm_at ])
    [ (8, 2); (8, 8); (8, 32); (16, 2); (16, 8); (16, 32); (32, 8) ];
  Tab.print tab;
  let n, k = (5, 2) in
  let tab2 =
    Tab.make
      ~caption:
        (Printf.sprintf
           "Concrete chip designs reading the k(2n)^2 input bits (n=%d, \
            k=%d, I=%d): every design respects AT^2 >= I^2 = %d"
           n k (k * n * n) (k * n * n * k * n * n))
      ~header:[ "design"; "h x w"; "area"; "T >="; "AT^2"; "AT^2 / I^2" ]
      [ Tab.Left; Tab.Left; Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  let info = Bounds.info_bits ~n ~k in
  let bound = Bounds.at2_lower ~info_bits:info in
  List.iter
    (fun d ->
      rows :=
        row
          [ ("kind", jstr "design"); ("n", jint n); ("k", jint k);
            ("design", jstr d.Tradeoff.name);
            ("h", jint (Layout.h d.Tradeoff.layout));
            ("w", jint (Layout.w d.Tradeoff.layout));
            ("area", jint (Layout.area d.Tradeoff.layout));
            ("time_lower", jfloat d.Tradeoff.time_estimate);
            ("at2", jfloat (Tradeoff.at2 d));
            ("at2_over_bound", jfloat (Tradeoff.at2 d /. bound)) ]
        :: !rows;
      Tab.add_row tab2
        [ d.Tradeoff.name;
          Printf.sprintf "%dx%d" (Layout.h d.Tradeoff.layout)
            (Layout.w d.Tradeoff.layout);
          fint (Layout.area d.Tradeoff.layout);
          fmt ~digits:1 d.Tradeoff.time_estimate;
          fmt ~digits:0 (Tradeoff.at2 d);
          Tab.fmt_ratio (Tradeoff.at2 d /. bound) ])
    (Tradeoff.designs_for ~n ~k);
  Tab.print tab2;
  Printf.printf
    "paper: our bounds strengthen Chazelle-Monier whenever k grows: T = \
     Omega(sqrt(k) n) vs Omega(n), AT = Omega(k^1.5 n^3) vs Omega(n^2).\n";
  { id = "E10"; title; params = []; rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E11: Section 1 baselines                                            *)
(* ------------------------------------------------------------------ *)

let e11 ctx =
  let title = "Baselines: identity, product verification, span problem" in
  section "E11" title;
  let rows = ref [] in
  (* identity *)
  let tab_id =
    Tab.make
      ~caption:
        "Identity problem: fooling set = 2^m exactly (Vuillemin's \
         technique works here; the paper's point is it cannot reach \
         singularity)"
      ~header:[ "m"; "fooling size"; "= 2^m"; "log-rank"; "trivial bits";
                "rand bits" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  List.iter
    (fun m ->
      let tm = gen (fun () -> Identity.truth_matrix ~m) in
      let diag = Fooling.diagonal_candidate tm in
      let valid = verify (fun () -> Fooling.is_fooling_set tm diag) in
      let report = verify (fun () -> Rank_bound.analyze tm ~exact_rect:false) in
      rows :=
        row
          [ ("kind", jstr "identity"); ("m", jint m);
            ("fooling_size", jint (List.length diag));
            ("fooling_valid", jbool (valid && List.length diag = 1 lsl m));
            ("log_rank", jfloat report.Rank_bound.log_rank);
            ("trivial_bits", jint m);
            ("rand_bits", jint (Identity.fingerprint_bits ~m ~epsilon:0.05)) ]
        :: !rows;
      Tab.add_row tab_id
        [ string_of_int m; string_of_int (List.length diag);
          (if valid && List.length diag = 1 lsl m then "yes" else "NO");
          fmt report.Rank_bound.log_rank; string_of_int m;
          string_of_int (Identity.fingerprint_bits ~m ~epsilon:0.05) ])
    [ 4; 6; 8 ];
  Tab.print tab_id;
  (* product verification *)
  let g = Prng.create 111 in
  let tab_pv =
    Tab.make
      ~caption:"A.B = C verification (n x n, k-bit): trivial vs Freivalds"
      ~header:[ "n"; "k"; "trivial bits"; "freivalds bits"; "saving"; "err" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  List.iter
    (fun (n, k) ->
      ctx.tick ();
      let trivial_bits = k * n * n in
      let fr = Mat_verify.freivalds_cost ~n ~k ~epsilon:0.05 in
      (* error on wrong products *)
      let rp = Mat_verify.freivalds ~n ~k ~epsilon:0.05 in
      let wrong = ref 0 and total = 40 in
      verify (fun () ->
      for seed = 0 to total - 1 do
        let a = Zm.random_kbit g ~rows:n ~cols:n ~k in
        let b = Zm.random_kbit g ~rows:n ~cols:n ~k in
        let c = Zm.copy (Zm.mul a b) in
        Zm.set c 0 0 (B.add (Zm.get c 0 0) B.one);
        let got, _ =
          Protocol.execute (rp.Randomized.run_seeded ~seed) a (b, c)
        in
        if got then incr wrong
      done);
      rows :=
        row
          [ ("kind", jstr "product_verification"); ("n", jint n);
            ("k", jint k); ("trivial_bits", jint trivial_bits);
            ("freivalds_bits", jint fr);
            ("saving", jfloat (float_of_int trivial_bits /. float_of_int fr));
            ("err", jfloat (float_of_int !wrong /. float_of_int total)) ]
        :: !rows;
      Tab.add_row tab_pv
        [ string_of_int n; string_of_int k; fint trivial_bits; fint fr;
          Tab.fmt_ratio (float_of_int trivial_bits /. float_of_int fr);
          fmt ~digits:3 (float_of_int !wrong /. float_of_int total) ])
    [ (8, 4); (16, 4); (16, 8) ];
  Tab.print tab_pv;
  (* rank gadget sanity *)
  let a = Zm.random_kbit g ~rows:4 ~cols:4 ~k:3 in
  let b = Zm.random_kbit g ~rows:4 ~cols:4 ~k:3 in
  let gadget_true = Red.product_gadget a b (Zm.mul a b) in
  Printf.printf
    "rank gadget: rank [[I,B],[A,AB]] = %d (= n = 4); perturbing C gives \
     rank %d (> n).\n"
    (Zm.rank gadget_true)
    (let c = Zm.copy (Zm.mul a b) in
     Zm.set c 0 0 (B.add (Zm.get c 0 0) B.one);
     Zm.rank (Red.product_gadget a b c));
  (* span problem *)
  let tab_span =
    Tab.make
      ~caption:
        "Vector-space span problem on singularity instances (union spans \
         <=> M nonsingular)"
      ~header:[ "n"; "k"; "agree"; "trivial bits"; "basis-exchange bits" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  List.iter
    (fun (n, k) ->
      let p = Params.make ~n ~k in
      let agree = ref true in
      let bits_trivial = ref 0 and bits_smart = ref 0 in
      verify (fun () ->
      List.iter
        (fun m ->
          let v1, v2 = Span.instance_of_matrix m in
          let got, c1 = Protocol.execute (Span.trivial ~k) v1 v2 in
          let got2, c2 = Protocol.execute (Span.dimension_exchange ~k) v1 v2 in
          bits_trivial := max !bits_trivial c1;
          bits_smart := max !bits_smart c2;
          if got <> (not (Zm.is_singular m)) || got2 <> got then agree := false)
        (mixed_pool g p ~count:6));
      rows :=
        row
          [ ("kind", jstr "span"); ("n", jint n); ("k", jint k);
            ("agree", jbool !agree); ("trivial_bits", jint !bits_trivial);
            ("basis_exchange_bits", jint !bits_smart) ]
        :: !rows;
      Tab.add_row tab_span
        [ string_of_int n; string_of_int k;
          (if !agree then "yes" else "NO");
          fint !bits_trivial; fint !bits_smart ])
    [ (5, 2); (7, 2) ];
  Tab.print tab_span;
  { id = "E11"; title; params = [ ("seed", jint 111) ];
    rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E12: the Theorem 1.1 accounting ledger                              *)
(* ------------------------------------------------------------------ *)

let e12 ctx =
  let title = "Theorem 1.1 ledger: the Section 3 accounting, explicit" in
  section "E12" title;
  let module T11 = Commx_core.Theorem11 in
  let tab =
    Tab.make
      ~caption:
        "The quantities the proof manipulates, with explicit constants \
         (log2 scale); 'lower' is the derived log2 d(f) - 2, 'upper' the \
         trivial protocol.  The explicit O(n log n) losses make the bound \
         vacuous at small n and ~kn^2/8 asymptotically."
      ~header:
        [ "n"; "k"; "log2 rows"; "log2 ones/row"; "log2 r"; "log2 maxcols";
          "lower bits"; "upper bits"; "upper/lower" ]
      [ Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right;
        Tab.Right; Tab.Right; Tab.Right ]
  in
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      ctx.tick ();
      let p = Params.make ~n ~k in
      let l = verify (fun () -> T11.ledger p) in
      let lb x = float_of_int (B.bit_length x) in
      let upper = float_of_int (Bounds.trivial_upper_bits ~n ~k) in
      rows :=
        row
          [ ("n", jint n); ("k", jint k);
            ("log2_rows", jfloat (lb l.T11.rows));
            ("log2_ones_per_row", jfloat (lb l.T11.ones_per_row_min));
            ("log2_r", jfloat (lb l.T11.r_threshold));
            ("log2_maxcols", jfloat (lb l.T11.wide_rect_max_cols));
            ("lower_bits", jfloat l.T11.comm_lower_bits);
            ("upper_bits", jfloat upper) ]
        :: !rows;
      Tab.add_row tab
        [ string_of_int n; string_of_int k;
          fmt ~digits:0 (lb l.T11.rows);
          fmt ~digits:0 (lb l.T11.ones_per_row_min);
          fmt ~digits:0 (lb l.T11.r_threshold);
          fmt ~digits:0 (lb l.T11.wide_rect_max_cols);
          fmt ~digits:0 l.T11.comm_lower_bits;
          fmt ~digits:0 upper;
          (if l.T11.comm_lower_bits > 0.0 then
             Tab.fmt_ratio (upper /. l.T11.comm_lower_bits)
           else "inf (vacuous)") ])
    [ (15, 4); (25, 4); (51, 4); (101, 4); (201, 4); (201, 8); (401, 4) ];
  Tab.print tab;
  Printf.printf
    "paper: Omega(k n^2); the explicit-constant bound settles at ~k n^2/8 \
     bits, a constant factor 16 below the 2 k n^2 upper bound.\n";
  { id = "E12"; title; params = []; rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E13: worst case vs typical case — the adaptive protocol             *)
(* ------------------------------------------------------------------ *)

let e13 ctx =
  let title =
    "Worst case vs typical case: adaptive certify-or-fall-back protocol"
  in
  section "E13" title;
  let g = Prng.create 113 in
  let tab =
    Tab.make
      ~caption:
        "Exact-answer adaptive protocol (mod-p full-rank certificate, \
         exact fallback).  Theorem 1.1 constrains the WORST case; random \
         inputs certify cheaply, the paper's singular instances always \
         pay in full."
      ~header:
        [ "n"; "k"; "instance class"; "trials"; "mean bits"; "worst bits";
          "trivial" ]
      [ Tab.Right; Tab.Right; Tab.Left; Tab.Right; Tab.Right; Tab.Right;
        Tab.Right ]
  in
  let rows = ref [] in
  List.iter
    (fun (n, k) ->
      ctx.tick ();
      let p = Params.make ~n ~k in
      let prime_bits = 8 in
      let run_class name make_instance trials =
        let costs =
          Array.init trials (fun seed ->
              let m = gen make_instance in
              let a, b = Halves.split_pi0 m in
              let proto =
                Commx_protocols.Adaptive.singularity ~n ~k ~prime_bits ~seed
              in
              let got, cost = verify (fun () -> Protocol.execute proto a b) in
              assert (got = Zm.is_singular m);
              float_of_int cost)
        in
        let worst = Array.fold_left Float.max 0.0 costs in
        rows :=
          row
            [ ("n", jint n); ("k", jint k); ("class", jstr name);
              ("trials", jint trials); ("mean_bits", jfloat (Stats.mean costs));
              ("worst_bits", jfloat worst);
              ("trivial_bits", jint (Trivial.exact_cost ~n ~k)) ]
          :: !rows;
        Tab.add_row tab
          [ string_of_int n; string_of_int k; name; string_of_int trials;
            fmt (Stats.mean costs); fmt ~digits:0 worst;
            fint (Trivial.exact_cost ~n ~k) ]
      in
      run_class "random k-bit"
        (fun () -> Zm.random_kbit g ~rows:(2 * n) ~cols:(2 * n) ~k)
        20;
      run_class "hard singular (Lemma 3.5a)"
        (fun () ->
          let f = H.random_free g p in
          H.build_m p (L35.complete p ~c:f.H.c ~e:f.H.e).L35.free)
        20)
    [ (5, 16); (7, 16); (9, 32) ];
  Tab.print tab;
  Printf.printf
    "paper: the Theta(k n^2) bound is about worst-case inputs — and the \
     hard instances realize it against this adaptive protocol too.\n";
  { id = "E13"; title;
    params = [ ("seed", jint 113); ("prime_bits", jint 8) ];
    rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E14: exact deterministic CC vs every bound, at enumerable sizes     *)
(* ------------------------------------------------------------------ *)

let e14 ctx =
  let title =
    "Exact deterministic communication complexity (game-tree search) vs \
     all bounds"
  in
  section "E14" title;
  let module Exact_cc = Commx_comm.Exact_cc in
  let module Cover = Commx_comm.Cover in
  let tab =
    Tab.make
      ~caption:
        "The quantity Theorem 1.1 bounds, computed exactly by min-max \
         search over all protocol trees (tiny instances only; all values \
         in bits; d(f), N1, N0 are the exact partition/cover numbers of \
         Section 2)"
      ~header:
        [ "function"; "truth matrix"; "exact CC"; "one-way"; "d(f)"; "N1/N0";
          "cover>="; "log-rank>="; "fooling>="; "portfolio>="; "trivial<=";
          "nodes" ]
      [ Tab.Left; Tab.Left; Tab.Right; Tab.Right; Tab.Right; Tab.Right;
        Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right; Tab.Right ]
  in
  let eq_inputs n = List.init n (fun i -> i) in
  let sing_inputs = List.init 4 (fun v -> (v lsr 1, v land 1)) in
  let tern = List.concat_map (fun a -> List.init 3 (fun c -> (a, c))) [ 0; 1; 2 ] in
  (* [measure] is let-polymorphic over the truth-matrix input types, so
     instances with differently-typed inputs coexist as thunks.  Each
     instance is searched twice: a sequential search is the primary
     (values and counters jobs-invariant by construction, which CI
     asserts on this artifact), and the pooled work-stealing driver
     re-derives the value as a cross-check (its value is
     schedule-invariant; its node counts are not, so they stay out of
     the rows and feed the separate [exact_cc.steal_nodes] counter).
     Instances small enough to be answered by canonicalization plus the
     certified root bounds never enter the pool at all — which after
     the lower-bound portfolio (rank/fooling + rational log-rank +
     discrepancy) includes every 17x17-20x20 instance below whose
     canonical board the portfolio meets the trivial protocol. *)
  let measure name tm trivial () =
    let m = Tm.to_bitmat tm in
    (* the exact max-rectangle enumeration is 2^min-dim: exact up to
       16, greedy for the 17x17-20x20 instances this PR admits *)
    let exact_rect = min (Tm.rows tm) (Tm.cols tm) <= 16 in
    let report = Rank_bound.analyze tm ~exact_rect in
    let cells = Tm.rows tm * Tm.cols tm in
    let d = if cells <= 25 then Some (Cover.min_partition m) else None in
    let covers =
      if cells <= 60 then Some (Cover.min_one_cover m, Cover.min_zero_cover m)
      else None
    in
    let cc, st = Exact_cc.search m in
    let steal_cc, _ = Exact_cc.search ~pool:ctx.pool m in
    if steal_cc <> cc then
      failwith
        (Printf.sprintf
           "E14 %s: stealing driver disagrees with sequential (%d vs %d)"
           name steal_cc cc);
    let portfolio = Exact_cc.lower_bound_portfolio m in
    let one_way = Commx_comm.Discrepancy.one_way_complexity m in
    ( name, Tm.rows tm, Tm.cols tm, cc, steal_cc, st, one_way, d, covers,
      report, portfolio, trivial )
  in
  let lowrank14 =
    (* rank-4 GF(2) product: 14x14 raw, but duplicate-row/column
       collapse shrinks it far below the cap — the instance that shows
       why the cap counts canonical dimensions. *)
    let g = Prng.create 55 in
    let m = Commx_util.Bitmat.mul
        (Commx_util.Bitmat.random g 14 4) (Commx_util.Bitmat.random g 4 14)
    in
    Tm.build (eq_inputs 14) (eq_inputs 14) (fun i j -> Commx_util.Bitmat.get m i j)
  in
  let of_bitmat n m =
    Tm.build (eq_inputs n) (eq_inputs n) (fun i j -> Commx_util.Bitmat.get m i j)
  in
  let sparse10 =
    (* sparse random 10x10 that PR 4's rank/fooling root bound (4)
       could NOT close against the trivial upper bound (5), forcing a
       genuine game-tree search — and that the PR 10 portfolio closes
       outright (rational log-rank = 5): the row documents a search
       the wider bounds simply deleted. *)
    let g = Prng.create 10067 in
    of_bitmat 10 (Commx_util.Bitmat.init 10 10 (fun _ _ -> Prng.float g < 0.22))
  in
  let sparse10_searching =
    (* sparse random 10x10 where even the full portfolio stalls at 4 <
       5: the instance that still needs a genuine game-tree search, and
       therefore the one that exercises the pooled driver. *)
    let g = Prng.create 105015 in
    of_bitmat 10 (Commx_util.Bitmat.init 10 10 (fun _ _ -> Prng.float g < 0.15))
  in
  let sparse18 =
    (* sparse random 18x18, canonical 17x17 — past the old 16x16 cap.
       The portfolio (log-rank 6) meets the trivial protocol at the
       root, so an instance whose game tree is unenumerable in an hour
       is answered without expanding a node. *)
    let g = Prng.create 800014 in
    of_bitmat 18 (Commx_util.Bitmat.init 18 18 (fun _ _ -> Prng.float g < 0.14))
  in
  let instances =
    [| measure "singularity (2x2, k=1)"
         (Tm.build sing_inputs sing_inputs (fun (a, c) (b, d) ->
              (a * d) - (b * c) = 0))
         3;
       measure "singularity (2x2, entries 0..2)"
         (Tm.build tern tern (fun (a, c) (b, d) -> (a * d) - (b * c) = 0))
         5;
       measure "equality (7 values)"
         (Tm.build (eq_inputs 7) (eq_inputs 7) ( = )) 4;
       measure "equality (8 values)"
         (Tm.build (eq_inputs 8) (eq_inputs 8) ( = )) 4;
       measure "equality (14 values)"
         (Tm.build (eq_inputs 14) (eq_inputs 14) ( = )) 5;
       measure "greater-than (7 values)"
         (Tm.build (eq_inputs 7) (eq_inputs 7) ( > )) 4;
       measure "greater-than (14 values)"
         (Tm.build (eq_inputs 14) (eq_inputs 14) ( > )) 5;
       measure "disjointness (3-bit sets)"
         (Tm.build (eq_inputs 8) (eq_inputs 8) (fun x y -> x land y = 0)) 4;
       measure "disjointness (4-bit sets)"
         (Tm.build (eq_inputs 16) (eq_inputs 16) (fun x y -> x land y = 0)) 5;
       measure "equality (18 values)"
         (Tm.build (eq_inputs 18) (eq_inputs 18) ( = )) 6;
       measure "greater-than (20 values)"
         (Tm.build (eq_inputs 20) (eq_inputs 20) ( > )) 6;
       measure "rank-4 product (14x14)" lowrank14 5;
       measure "random sparse (10x10, d=0.22)" sparse10 5;
       measure "random sparse (10x10, d=0.15)" sparse10_searching 5;
       measure "random sparse (18x18, d=0.14)" sparse18 6;
       (* solvability of a 1-equation system a x = b over 1-bit values:
          Alice holds a, Bob holds b *)
       measure "1x1 solvability (2-bit)"
         (Tm.build (eq_inputs 4) (eq_inputs 4) (fun a b ->
              b mod max 1 a = 0 || (a = 0 && b = 0)))
         3 |]
  in
  (* Instances run sequentially; the pooled cross-check parallelizes
     inside the search (root splits), so nested pool batches never
     occur. *)
  let measured = enum (fun () -> Array.map (fun f -> f ()) instances) in
  let rows = ref [] in
  Array.iter
    (fun ( name, trows, tcols, cc, steal_cc, st, one_way, d, covers, report,
           portfolio, trivial ) ->
      let pf n = List.assoc n portfolio in
      rows :=
        row
          [ ("function", jstr name); ("rows", jint trows); ("cols", jint tcols);
            ("exact_cc", jint cc); ("steal_cc", jint steal_cc);
            ("one_way", jint one_way);
            ("d_f", match d with Some v -> jint v | None -> Json.Null);
            ("n1", match covers with Some (v, _) -> jint v | None -> Json.Null);
            ("n0", match covers with Some (_, v) -> jint v | None -> Json.Null);
            ("cover_bits", jfloat report.Rank_bound.cover_bits);
            ("log_rank", jfloat report.Rank_bound.log_rank);
            ("fooling_bits", jfloat report.Rank_bound.fooling_bits);
            ("pf_rank_fooling", jint (pf "rank_fooling"));
            ("pf_log_rank", jint (pf "log_rank"));
            ("pf_discrepancy", jint (pf "discrepancy"));
            ("trivial_bits", jint trivial);
            ("canon_rows", jint st.Exact_cc.canon_rows);
            ("canon_cols", jint st.Exact_cc.canon_cols);
            ("root_lower", jint st.Exact_cc.root_lower);
            ("root_upper", jint st.Exact_cc.root_upper);
            ("search_nodes", jint st.Exact_cc.nodes);
            ("table_hits", jint st.Exact_cc.table_hits) ]
        :: !rows;
      Tab.add_row tab
        [ name;
          Printf.sprintf "%dx%d" trows tcols;
          string_of_int cc;
          string_of_int one_way;
          (match d with Some v -> string_of_int v | None -> "-");
          (match covers with
          | Some (n1, n0) -> Printf.sprintf "%d/%d" n1 n0
          | None -> "-");
          fmt report.Rank_bound.cover_bits;
          fmt report.Rank_bound.log_rank;
          fmt report.Rank_bound.fooling_bits;
          Printf.sprintf "%d/%d/%d" (pf "rank_fooling") (pf "log_rank")
            (pf "discrepancy");
          string_of_int trivial;
          fint st.Exact_cc.nodes ])
    measured;
  Tab.print tab;
  Printf.printf
    "The exact value always sits between every certificate and the \
     trivial protocol; for tiny singularity the sandwich is TIGHT \
     (3 = 3), the statement of Theorem 1.1 in miniature.  The \
     portfolio column (rank-fooling/log-rank/discrepancy) shows which \
     certified bound closes each root: every 17x17-20x20 instance is \
     answered with zero node expansions because one member meets the \
     trivial protocol.\n";
  { id = "E14"; title; params = []; rows = List.rev !rows; fits = [] }

(* ------------------------------------------------------------------ *)
(* E15: minimizing over partitions — the unrestricted complexity       *)
(* ------------------------------------------------------------------ *)

let e15 ctx =
  let title =
    "Unrestricted complexity = min over even partitions (tiny instance, \
     exhaustive)"
  in
  section "E15" title;
  let module Exact_cc = Commx_comm.Exact_cc in
  (* 2x2 matrices of 1-bit entries: 4 cells e0..e3 (column-major:
     e0 = M[0][0], e1 = M[1][0], e2 = M[0][1], e3 = M[1][1]); enumerate
     all C(4,2) = 6 even partitions, compute the exact CC of the truth
     matrix each induces, take the minimum — the quantity Theorem 1.1
     speaks about. *)
  let singular cells =
    (* cells.(i) is entry e_i *)
    (cells.(0) * cells.(3)) - (cells.(2) * cells.(1)) = 0
  in
  let tab =
    Tab.make
      ~caption:
        "Singularity of 2x2 one-bit matrices: exact CC per even partition \
         of the 4 entries (agent 1's entries listed); pi_0 = {e0,e1}"
      ~header:[ "agent 1 reads"; "truth matrix"; "exact CC" ]
      [ Tab.Left; Tab.Left; Tab.Right ]
  in
  let pairs = [| (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) |] in
  (* Six independent exact-CC searches: one per even partition. *)
  let measured =
    enum (fun () ->
    Pool.parallel_map ctx.pool
      (fun (p1, p2) ->
        let alice_cells = [ p1; p2 ] in
        let bob_cells =
          List.filter (fun c -> not (List.mem c alice_cells)) [ 0; 1; 2; 3 ]
        in
        (* truth matrix: rows = assignments of alice's 2 bits *)
        let assignments = [ (0, 0); (0, 1); (1, 0); (1, 1) ] in
        let tm =
          Commx_comm.Truth_matrix.build assignments assignments
            (fun (a1, a2) (b1, b2) ->
              let cells = Array.make 4 0 in
              List.iteri
                (fun idx c -> cells.(c) <- (match idx with 0 -> a1 | _ -> a2))
                alice_cells;
              List.iteri
                (fun idx c -> cells.(c) <- (match idx with 0 -> b1 | _ -> b2))
                bob_cells;
              singular cells)
        in
        (p1, p2, Commx_comm.Truth_matrix.rows tm,
         Commx_comm.Truth_matrix.cols tm, Exact_cc.complexity_tm tm))
      pairs)
  in
  let best = ref max_int in
  let rows = ref [] in
  Array.iter
    (fun (p1, p2, trows, tcols, cc) ->
      if cc < !best then best := cc;
      rows :=
        row
          [ ("agent1_cells", Json.List [ jint p1; jint p2 ]);
            ("rows", jint trows); ("cols", jint tcols); ("exact_cc", jint cc) ]
        :: !rows;
      Tab.add_row tab
        [ Printf.sprintf "{e%d, e%d}" p1 p2;
          Printf.sprintf "%dx%d" trows tcols;
          string_of_int cc ])
    measured;
  Tab.print tab;
  Printf.printf
    "unrestricted complexity = min over partitions = %d bits.\n\
     The diagonal partitions {e0,e3} and {e1,e2} are one bit cheaper than \
     pi_0 at this toy size (knowing a*d or b*c collapses the matrix) — \
     consistent with Lemma 3.9, which only promises that NO partition \
     beats pi_0 by more than a constant factor.\n"
    !best;
  { id = "E15"; title; params = [];
    rows = List.rev !rows;
    fits = [ ("min_over_partitions_bits", jint !best) ] }

let all = [
  ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
  ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
  ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15);
]
