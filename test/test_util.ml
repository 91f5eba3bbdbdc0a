(* Direct tests for the utility substrate: SplitMix64 PRNG, bit
   vectors, GF(2) bit matrices, statistics, tables, and enumeration
   helpers.  These are exercised indirectly everywhere else; here we
   pin their contracts. *)

module Prng = Commx_util.Prng
module Bv = Commx_util.Bitvec
module Bm = Commx_util.Bitmat
module Stats = Commx_util.Stats
module Tab = Commx_util.Tab
module Combi = Commx_util.Combi
module Json = Commx_util.Json
module Pool = Commx_util.Pool
module Traffic = Commx_util.Traffic
module Telemetry = Commx_util.Telemetry

let qtest ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_copy_independent () =
  let a = Prng.create 7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  let va = Prng.bits64 a in
  let vb = Prng.bits64 b in
  Alcotest.(check int64) "copy replays" va vb;
  (* advancing a further does not affect b *)
  ignore (Prng.bits64 a);
  let vb2 = Prng.bits64 b in
  let va2 = Prng.bits64 (Prng.copy a) in
  Alcotest.(check bool) "independent" true (vb2 <> va2 || vb2 = va2)

let test_prng_split_diverges () =
  let a = Prng.create 3 in
  let b = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.bits64 a) in
  let ys = List.init 20 (fun _ -> Prng.bits64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let prop_int_in_range seed =
  let g = Prng.create seed in
  let bound = 1 + (abs seed mod 1000) in
  List.for_all
    (fun _ ->
      let v = Prng.int g bound in
      v >= 0 && v < bound)
    (List.init 50 (fun i -> i))

let prop_int_incl_in_range seed =
  let g = Prng.create seed in
  let lo = -50 + (seed mod 20) and hi = 50 + (seed mod 20) in
  List.for_all
    (fun _ ->
      let v = Prng.int_incl g lo hi in
      v >= lo && v <= hi)
    (List.init 50 (fun i -> i))

(* The SplitMix64 stream, pinned: every draw kind in one sequence per
   seed, rendered as text.  The expected lines were recorded before the
   state moved from an [int64] field to raw bytes; any change to the
   stream, the rejection rule or the shuffle order changes them.
   [int] at 2^61 + 12345 rejects about half its raw draws. *)
let prng_pin_line seed =
  let g = Prng.create seed in
  let ints =
    List.map
      (fun b -> string_of_int (Prng.int g b))
      [ 1; 2; 7; 64; (1 lsl 61) + 12345 ]
  in
  let b = Prng.bool g in
  let f = Prng.float g in
  let w = Prng.bits64 g in
  let child = Prng.split g in
  let cw = Prng.bits64 child in
  let pw = Prng.bits64 g in
  let ii = Prng.int_incl g (-5) 5 in
  let a = Array.init 97 Fun.id in
  Prng.shuffle g a;
  let h = Array.fold_left (fun h x -> ((h * 31) + x) land 0xFFFFFFFFFFFF) 0 a in
  let s = Prng.sample_without_replacement g 10 25 in
  let ints_s a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  Printf.sprintf
    "int=%s bool=%b float=%h bits64=%Lx split=%Lx,%Lx incl=%d \
     shuffle=%s..#%x sample=%s"
    (String.concat "," ints) b f w cw pw ii
    (ints_s (Array.sub a 0 6))
    h (ints_s s)

let prng_pins =
  [ ( 0,
      "int=0,1,5,59,490437550606523686 bool=false float=0x1.6414d5f0fa298p-3 \
       bits64=c584133ac916ab3c split=f602fed527866b0b,f3b8488c368cb0a6 incl=4 \
       shuffle=80,9,18,10,36,39..#46f0a134fcd6 sample=10,6,16,19,22,17,1,11,3,9",
      118 );
    ( 1,
      "int=0,1,4,11,931835874657720878 bool=true float=0x1.d2b5309350688p-2 \
       bits64=2f9a1f13648eab6e split=1969f1328f7ca46b,e1d9d25350c18b44 incl=3 \
       shuffle=90,74,5,67,80,52..#b5ca262b735a sample=9,0,2,11,3,21,13,14,23,6",
      118 );
    ( -7,
      "int=0,0,1,34,1253139890351779899 bool=false float=0x1.16ecaef0c7724p-2 \
       bits64=2152c9a4ddd31d5a split=2e5c31d7698e57be,de26d83c3959aecd incl=2 \
       shuffle=22,78,28,11,4,19..#c8015bdd265a sample=1,16,2,19,13,4,20,5,22,21",
      119 );
    ( 1234,
      "int=0,1,4,62,1435809892863104588 bool=false float=0x1.e21e7355405ap-6 \
       bits64=f09719a8635ebf3c split=9e3ba2fe5addf9db,7638ca91fe237aac incl=1 \
       shuffle=22,30,74,39,77,43..#e290a10056b6 sample=3,14,2,20,22,5,17,6,10,7",
      118 );
    ( 20260809,
      "int=0,0,2,62,888010957217066489 bool=false float=0x1.78a50c1270a81p-1 \
       bits64=9327ea47db66462e split=360100327bc6a6b4,8c42f17b18aab76a incl=2 \
       shuffle=20,35,44,93,14,3..#4f4cae1ef3f4 sample=17,20,0,14,7,9,21,13,4,18",
      118 ) ]

(* [prng.draws] added while [f] runs, at [Metrics] level. *)
let prng_draws f =
  Telemetry.reset ();
  Telemetry.set_level Telemetry.Metrics;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_level Telemetry.Off;
      Telemetry.reset ())
    (fun () ->
      let before = Telemetry.counters () in
      f ();
      Option.value ~default:0
        (List.assoc_opt "prng.draws"
           (Telemetry.diff_counters ~before (Telemetry.counters ()))))

let test_prng_stream_pinned () =
  List.iter
    (fun (seed, line, draws) ->
      Alcotest.(check string)
        (Printf.sprintf "stream seed %d" seed)
        line (prng_pin_line seed);
      Alcotest.(check int)
        (Printf.sprintf "draws seed %d" seed)
        draws
        (prng_draws (fun () -> ignore (prng_pin_line seed))))
    prng_pins;
  let a = Array.init 97 Fun.id in
  Alcotest.(check int) "one shuffle of 97" 96
    (prng_draws (fun () -> Prng.shuffle (Prng.create 3) a));
  let g = Prng.create 3 in
  Alcotest.(check (list int)) "int rejections counted" [ 2; 1; 6; 4; 3; 1; 2; 3 ]
    (List.init 8 (fun _ ->
         prng_draws (fun () -> ignore (Prng.int g ((1 lsl 61) + 12345)))))

let test_prng_uniformity_rough () =
  (* chi-square-ish smoke: 6 buckets, 6000 draws, each within 30% *)
  let g = Prng.create 2718 in
  let buckets = Array.make 6 0 in
  for _ = 1 to 6000 do
    let v = Prng.int g 6 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d: %d" i c)
        true
        (c > 700 && c < 1300))
    buckets

let prop_shuffle_is_permutation seed =
  let g = Prng.create seed in
  let a = Array.init 30 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  sorted = Array.init 30 (fun i -> i)

let prop_sample_without_replacement_distinct seed =
  let g = Prng.create seed in
  let s = Prng.sample_without_replacement g 10 25 in
  Array.length s = 10
  && Array.for_all (fun x -> x >= 0 && x < 25) s
  &&
  let tbl = Hashtbl.create 16 in
  Array.for_all
    (fun x ->
      if Hashtbl.mem tbl x then false
      else begin
        Hashtbl.add tbl x ();
        true
      end)
    s

let prop_float_unit seed =
  let g = Prng.create seed in
  List.for_all
    (fun _ ->
      let f = Prng.float g in
      f >= 0.0 && f < 1.0)
    (List.init 50 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Bitvec                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitvec_basic () =
  let v = Bv.create 100 in
  Alcotest.(check int) "length" 100 (Bv.length v);
  Alcotest.(check bool) "zero init" true (Bv.is_zero v);
  Bv.set v 63 true;
  (* word boundary at 62 *)
  Bv.set v 62 true;
  Bv.set v 0 true;
  Alcotest.(check bool) "get 63" true (Bv.get v 63);
  Alcotest.(check bool) "get 62" true (Bv.get v 62);
  Alcotest.(check bool) "get 1" false (Bv.get v 1);
  Alcotest.(check int) "popcount" 3 (Bv.popcount v);
  Bv.set v 62 false;
  Alcotest.(check int) "popcount after clear" 2 (Bv.popcount v)

let test_bitvec_bounds () =
  let v = Bv.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Bv.get v 10))

let prop_bitvec_string_roundtrip seed =
  let g = Prng.create seed in
  let v = Bv.random g (1 + (abs seed mod 150)) in
  Bv.equal v (Bv.of_string (Bv.to_string v))

let prop_bitvec_int_roundtrip v =
  let v = abs v mod (1 lsl 30) in
  Bv.to_int (Bv.of_int 30 v) = v

let prop_bitvec_xor_self seed =
  let g = Prng.create seed in
  let v = Bv.random g 97 in
  let w = Bv.copy v in
  Bv.xor_into w v;
  Bv.is_zero w

let prop_bitvec_fold_matches_popcount seed =
  let g = Prng.create seed in
  let v = Bv.random g 130 in
  Bv.fold_set_bits (fun _ acc -> acc + 1) v 0 = Bv.popcount v

let prop_bitvec_fold_ascending seed =
  let g = Prng.create seed in
  let v = Bv.random g 130 in
  let idx = List.rev (Bv.fold_set_bits (fun i acc -> i :: acc) v []) in
  List.sort compare idx = idx
  && List.for_all (fun i -> Bv.get v i) idx

let prop_bitvec_append_sub seed =
  let g = Prng.create seed in
  let a = Bv.random g 40 and b = Bv.random g 27 in
  let ab = Bv.append a b in
  Bv.equal a (Bv.sub ab 0 40) && Bv.equal b (Bv.sub ab 40 27)

let prop_bitvec_compare_total seed =
  let g = Prng.create seed in
  let a = Bv.random g 64 and b = Bv.random g 64 in
  let c1 = Bv.compare a b and c2 = Bv.compare b a in
  (c1 = 0) = Bv.equal a b && compare c1 0 = compare 0 c2

(* ------------------------------------------------------------------ *)
(* Bitmat                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitmat_mul_identity () =
  let g = Prng.create 5 in
  let m = Bm.random g 7 7 in
  Alcotest.(check bool) "I*m" true (Bm.equal m (Bm.mul (Bm.identity 7) m));
  Alcotest.(check bool) "m*I" true (Bm.equal m (Bm.mul m (Bm.identity 7)))

let prop_bitmat_mul_assoc seed =
  let g = Prng.create seed in
  let a = Bm.random g 5 6 and b = Bm.random g 6 4 and c = Bm.random g 4 3 in
  Bm.equal (Bm.mul (Bm.mul a b) c) (Bm.mul a (Bm.mul b c))

let prop_bitmat_transpose_involution seed =
  let g = Prng.create seed in
  let m = Bm.random g 9 4 in
  Bm.equal m (Bm.transpose (Bm.transpose m))

let prop_bitmat_rank_transpose seed =
  let g = Prng.create seed in
  let m = Bm.random g 8 5 in
  Bm.rank m = Bm.rank (Bm.transpose m)

let prop_bitmat_rank_bounds seed =
  let g = Prng.create seed in
  let m = Bm.random g 7 9 in
  let r = Bm.rank m in
  r >= 0 && r <= 7

let test_bitmat_rank_known () =
  Alcotest.(check int) "identity" 6 (Bm.rank (Bm.identity 6));
  let all_ones = Bm.init 5 5 (fun _ _ -> true) in
  Alcotest.(check int) "all ones" 1 (Bm.rank all_ones);
  let zero = Bm.create 4 4 in
  Alcotest.(check int) "zero" 0 (Bm.rank zero);
  (* GF(2): [[1,1],[1,1]] has rank 1 *)
  let j2 = Bm.init 2 2 (fun _ _ -> true) in
  Alcotest.(check int) "J2" 1 (Bm.rank j2)

let prop_bitmat_submatrix seed =
  let g = Prng.create seed in
  let m = Bm.random g 6 6 in
  let s = Bm.submatrix m [| 1; 3 |] [| 0; 2; 4 |] in
  Bm.rows s = 2 && Bm.cols s = 3
  && Bm.get s 0 0 = Bm.get m 1 0
  && Bm.get s 1 2 = Bm.get m 3 4

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_known () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "stddev (sample)" (sqrt (32.0 /. 7.0))
    (Stats.stddev xs);
  Alcotest.(check (float 1e-9)) "median" 4.5 (Stats.median xs);
  let lo, hi = Stats.min_max xs in
  Alcotest.(check (float 1e-9)) "min" 2.0 lo;
  Alcotest.(check (float 1e-9)) "max" 9.0 hi;
  Alcotest.(check (float 1e-9)) "median odd" 3.0 (Stats.median [| 7.0; 1.0; 3.0 |])

let test_stats_fit () =
  (* exact line y = 3x + 1 *)
  let pts = Array.init 10 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 1.0)) in
  let slope, intercept, r2 = Stats.linear_fit pts in
  Alcotest.(check (float 1e-9)) "slope" 3.0 slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 intercept;
  Alcotest.(check (float 1e-9)) "r2" 1.0 r2;
  (* proportional y = 2x *)
  let pts2 = Array.init 10 (fun i -> (float_of_int (i + 1), 2.0 *. float_of_int (i + 1))) in
  let c, r2p = Stats.proportional_fit pts2 in
  Alcotest.(check (float 1e-9)) "proportional c" 2.0 c;
  Alcotest.(check (float 1e-9)) "proportional r2" 1.0 r2p;
  (* power law y = x^2.5 on log-log *)
  let pts3 = Array.init 8 (fun i -> let x = float_of_int (i + 2) in (x, x ** 2.5)) in
  Alcotest.(check (float 1e-9)) "log-log slope" 2.5 (Stats.log_log_slope pts3)

let test_stats_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (Stats.mean [||]));
  Alcotest.check_raises "one-point fit"
    (Invalid_argument "Stats.linear_fit: need at least two points") (fun () ->
      ignore (Stats.linear_fit [| (1.0, 1.0) |]))

let test_stats_percentile () =
  let xs = [| 3.0; 1.0; 4.0; 2.0 |] in
  (* linear interpolation between closest ranks (numpy default) *)
  Alcotest.(check (float 1e-9)) "p0 = min" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p25" 1.75 (Stats.percentile xs 25.0);
  Alcotest.(check (float 1e-9)) "p50" 2.5 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 4.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "median = p50" (Stats.median xs)
    (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "odd median = p50" (Stats.median [| 7.0; 1.0; 3.0 |])
    (Stats.percentile [| 7.0; 1.0; 3.0 |] 50.0);
  Alcotest.(check (float 1e-9)) "singleton" 5.0 (Stats.percentile [| 5.0 |] 37.0);
  Alcotest.(check (float 1e-9)) "variance of singleton" 0.0
    (Stats.variance [| 5.0 |]);
  (* sample (Bessel-corrected) semantics, documented in the .mli *)
  Alcotest.(check (float 1e-9)) "sample variance" (5.0 /. 3.0)
    (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "out-of-range p"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile xs 101.0))

let prop_variance_nonneg seed =
  let g = Prng.create seed in
  let xs = Array.init (2 + abs seed mod 20) (fun _ -> Prng.float g *. 100.0) in
  Stats.variance xs >= 0.0

(* Pathological load data: the shapes a latency report actually
   produces under degenerate traffic (one request, perfectly uniform
   service times) plus the poison case (a NaN latency from a bad
   subtraction) that must be rejected, not silently ranked. *)
let test_stats_percentile_pathological () =
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single sample p%g" p)
        42.0
        (Stats.percentile [| 42.0 |] p))
    [ 0.0; 50.0; 95.0; 99.0; 100.0 ];
  let flat = Array.make 100 7.5 in
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "all-equal p%g" p)
        7.5 (Stats.percentile flat p))
    [ 0.0; 50.0; 95.0; 99.0; 100.0 ];
  Alcotest.check_raises "NaN sample rejected"
    (Invalid_argument "Stats.percentile: NaN in sample") (fun () ->
      ignore (Stats.percentile [| 1.0; Float.nan; 2.0 |] 50.0))

(* Batch rank = scalar rank on a mixed bag: packable boards, a board
   wider than one machine word (the fallback path), and the empty
   batch.  The fuzzed equivalence lives in commx_check; this pins the
   edges deterministically. *)
(* Content keys: the shape is part of the key (the same 16 bits as
   1x16, 16x1 and 2x8 give three keys), rows are fixed-width hex, and
   across the 62-bit word boundary a flip of any one bit moves the
   key. *)
let test_bitmat_key () =
  let bits = 0b1011_0010_1110_0101 in
  let shaped r c = Bm.init r c (fun i j -> (bits lsr ((i * c) + j)) land 1 = 1) in
  let keys = List.map (fun (r, c) -> Bm.key (shaped r c)) [ (1, 16); (16, 1); (2, 8) ] in
  Alcotest.(check int) "three shapes, three keys" 3
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check string) "2x8 rendering" "2x8:5e2b" (Bm.key (shaped 2 8));
  let g = Prng.create 3 in
  Alcotest.(check int) "16x16 key length" 70 (String.length (Bm.key (Bm.random g 16 16)));
  List.iter
    (fun cols ->
      let m = Bm.random g 3 cols in
      let k = Bm.key m in
      Alcotest.(check int)
        (Printf.sprintf "fixed width at %d columns" cols)
        (String.length (Bm.key (Bm.create 3 cols))) (String.length k);
      for j = 0 to cols - 1 do
        let m' = Bm.copy m in
        Bm.set m' 1 j (not (Bm.get m 1 j));
        if Bm.key m' = k then Alcotest.failf "flip at column %d of %d kept the key" j cols
      done)
    [ 61; 62; 63; 64 ]

let test_bitmat_of_packed_rows () =
  let g = Prng.create 4 in
  List.iter
    (fun (r, c) ->
      let m = Bm.random g r c in
      let w = Bv.words_for c in
      let words = Array.make ((r * w) + 3) 0 in
      for i = 0 to r - 1 do
        for j = 0 to c - 1 do
          if Bm.get m i j then begin
            let k = (i * w) + (j / Bv.bits_per_word) in
            words.(k) <- words.(k) lor (1 lsl (j mod Bv.bits_per_word))
          end
        done
      done;
      Alcotest.(check bool) (Printf.sprintf "%dx%d rebuilt" r c) true
        (Bm.equal m (Bm.of_packed_rows r c words)))
    [ (1, 1); (5, 62); (4, 63); (64, 64); (3, 0); (0, 5) ];
  Alcotest.check_raises "bit past the last column"
    (Invalid_argument "Bitvec.of_words: bit past the end") (fun () ->
      ignore (Bm.of_packed_rows 1 3 [| 0b1000 |]));
  Alcotest.check_raises "words run short" (Invalid_argument "Bitvec.of_words")
    (fun () -> ignore (Bm.of_packed_rows 2 64 [| 0; 0; 0 |]))

let test_bitmat_rank_batch () =
  let g = Prng.create 2026 in
  let boards =
    Array.init 12 (fun i ->
        if i = 5 then Bm.random g 4 (Bv.bits_per_word + 3)
        else Bm.random g (1 + Prng.int g 10) (1 + Prng.int g 10))
  in
  Alcotest.(check (array int))
    "batch equals scalar" (Array.map Bm.rank boards) (Bm.rank_batch boards);
  Alcotest.(check (array int)) "empty batch" [||] (Bm.rank_batch [||])

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)
(* ------------------------------------------------------------------ *)

let test_traffic_parse_mix () =
  (match Traffic.parse_mix "exact_cc=1,singular=4" with
  | Ok [ (Traffic.Exact_cc, 1.0); (Traffic.Singular, 4.0) ] -> ()
  | Ok _ -> Alcotest.fail "parsed into the wrong mix"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  Alcotest.(check string) "round trip" "exact_cc=1,singular=4"
    (match Traffic.parse_mix "exact_cc=1,singular=4" with
    | Ok m -> Traffic.mix_to_string m
    | Error e -> e);
  Alcotest.(check string) "default round trips"
    (Traffic.mix_to_string Traffic.default_mix)
    (match Traffic.parse_mix (Traffic.mix_to_string Traffic.default_mix) with
    | Ok m -> Traffic.mix_to_string m
    | Error e -> e);
  let rejects s =
    match Traffic.parse_mix s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "mix %S was accepted" s
  in
  rejects "";
  rejects "exact_cc";
  rejects "teleport=1";
  rejects "singular=0";
  rejects "singular=-2";
  rejects "singular=abc";
  rejects "singular=1,singular=2"

(* Same (seed, mix, arrival, count) => bit-identical stream; the
   generator takes no jobs parameter at all, which is the stronger
   form of the bench's jobs-invariance guarantee (the executor only
   ever consumes this schedule read-only). *)
let test_traffic_stream_deterministic () =
  let mix = Traffic.default_mix in
  let a =
    Traffic.stream ~seed:11 ~mix ~arrival:(Traffic.Open { rate = 500.0 })
      ~count:200
  in
  let b =
    Traffic.stream ~seed:11 ~mix ~arrival:(Traffic.Open { rate = 500.0 })
      ~count:200
  in
  Alcotest.(check bool) "identical streams" true (a = b);
  let c =
    Traffic.stream ~seed:12 ~mix ~arrival:(Traffic.Open { rate = 500.0 })
      ~count:200
  in
  Alcotest.(check bool) "seed changes the stream" true (a <> c);
  Array.iteri
    (fun i (r : Traffic.request) ->
      Alcotest.(check int) "ids are positional" i r.Traffic.id)
    a;
  (* Open loop: arrivals strictly advance (exponential gaps > 0). *)
  Array.iteri
    (fun i (r : Traffic.request) ->
      if i > 0 then
        Alcotest.(check bool) "arrivals nondecreasing" true
          (r.Traffic.arrival_s >= a.(i - 1).Traffic.arrival_s))
    a;
  (* Closed loop: no schedule, only ordering. *)
  let closed =
    Traffic.stream ~seed:11 ~mix
      ~arrival:(Traffic.Closed { concurrency = 4 })
      ~count:50
  in
  Array.iter
    (fun (r : Traffic.request) ->
      Alcotest.(check (float 0.0)) "closed arrival zero" 0.0
        r.Traffic.arrival_s)
    closed

let test_traffic_stream_respects_mix () =
  let only =
    Traffic.stream ~seed:3
      ~mix:[ (Traffic.Protocol, 2.5) ]
      ~arrival:(Traffic.Closed { concurrency = 1 })
      ~count:64
  in
  Array.iter
    (fun (r : Traffic.request) ->
      Alcotest.(check bool) "single-kind mix" true
        (r.Traffic.kind = Traffic.Protocol))
    only;
  Alcotest.check_raises "empty mix rejected"
    (Invalid_argument "Traffic.stream: mix must be non-empty with positive weights")
    (fun () ->
      ignore
        (Traffic.stream ~seed:0 ~mix:[]
           ~arrival:(Traffic.Closed { concurrency = 1 })
           ~count:1))

(* ------------------------------------------------------------------ *)
(* Tab                                                                 *)
(* ------------------------------------------------------------------ *)

let test_tab_render () =
  let t = Tab.make ~caption:"cap" ~header:[ "a"; "bb" ] [ Tab.Left; Tab.Right ] in
  Tab.add_row t [ "x"; "1" ];
  Tab.add_rule t;
  Tab.add_row t [ "yyy"; "22" ];
  let s = Tab.render t in
  Alcotest.(check bool) "caption" true (String.length s > 0 && String.sub s 0 3 = "cap");
  (* all lines same width *)
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  let widths = List.map String.length (List.tl lines) in
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_tab_width_mismatch () =
  let t = Tab.make ~header:[ "a" ] [ Tab.Left ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Tab.add_row: width mismatch")
    (fun () -> Tab.add_row t [ "x"; "y" ])

let test_tab_formats () =
  Alcotest.(check string) "thousands" "1,234,567" (Tab.fmt_int_thousands 1234567);
  Alcotest.(check string) "negative" "-1,000" (Tab.fmt_int_thousands (-1000));
  Alcotest.(check string) "small" "999" (Tab.fmt_int_thousands 999);
  Alcotest.(check string) "ratio" "3.20x" (Tab.fmt_ratio 3.2);
  Alcotest.(check string) "float digits" "2.718" (Tab.fmt_float ~digits:3 2.71828)

(* ------------------------------------------------------------------ *)
(* Combi                                                               *)
(* ------------------------------------------------------------------ *)

let test_iter_tuples () =
  let seen = ref [] in
  Combi.iter_tuples 3 2 (fun d -> seen := Array.to_list d :: !seen);
  Alcotest.(check int) "count" 9 (List.length !seen);
  Alcotest.(check (list (list int))) "first/last order" [ [ 0; 0 ]; [ 2; 2 ] ]
    [ List.nth (List.rev !seen) 0; List.hd !seen ];
  (* len 0: exactly one empty tuple *)
  let count = ref 0 in
  Combi.iter_tuples 5 0 (fun _ -> incr count);
  Alcotest.(check int) "empty tuple" 1 !count

let test_iter_subsets () =
  let count = ref 0 and total_elems = ref 0 in
  Combi.iter_subsets 5 (fun s ->
      incr count;
      total_elems := !total_elems + List.length s);
  Alcotest.(check int) "2^5 subsets" 32 !count;
  Alcotest.(check int) "element count" (5 * 16) !total_elems

let test_iter_combinations () =
  let seen = ref [] in
  Combi.iter_combinations 5 3 (fun c -> seen := Array.to_list c :: !seen);
  Alcotest.(check int) "C(5,3)" 10 (List.length !seen);
  List.iter
    (fun c ->
      Alcotest.(check bool) "sorted distinct" true
        (List.sort compare c = c && List.length (List.sort_uniq compare c) = 3))
    !seen;
  (* r > n: nothing *)
  let count = ref 0 in
  Combi.iter_combinations 2 3 (fun _ -> incr count);
  Alcotest.(check int) "empty" 0 !count

let test_iter_permutations () =
  let seen = Hashtbl.create 64 in
  Combi.iter_permutations 4 (fun p -> Hashtbl.replace seen (Array.to_list p) ());
  Alcotest.(check int) "4! distinct" 24 (Hashtbl.length seen)

let test_binomial_factorial_power () =
  Alcotest.(check int) "C(10,3)" 120 (Combi.binomial 10 3);
  Alcotest.(check int) "C(10,0)" 1 (Combi.binomial 10 0);
  Alcotest.(check int) "C(3,5)" 0 (Combi.binomial 3 5);
  Alcotest.(check int) "6!" 720 (Combi.factorial 6);
  Alcotest.(check int) "3^7" 2187 (Combi.power 3 7);
  Alcotest.(check int) "x^0" 1 (Combi.power 99 0);
  Alcotest.check_raises "overflow" (Failure "Combi.power: overflow") (fun () ->
      ignore (Combi.power 10 30))

(* Regression: [power] used a floating-point magnitude guard that
   mis-rejected exactly-representable results near max_int (e.g. 3^39)
   because the float product rounded above 2^62.  The guard is now an
   exact integer overflow check. *)
let test_power_boundary () =
  Alcotest.(check int) "3^39 representable" 4052555153018976267
    (Combi.power 3 39);
  Alcotest.check_raises "3^40 overflows" (Failure "Combi.power: overflow")
    (fun () -> ignore (Combi.power 3 40));
  Alcotest.(check int) "(2^31-1)^2 representable" 4611686014132420609
    (Combi.power ((1 lsl 31) - 1) 2);
  Alcotest.(check int) "2^61" (1 lsl 61) (Combi.power 2 61);
  Alcotest.check_raises "2^62 overflows" (Failure "Combi.power: overflow")
    (fun () -> ignore (Combi.power 2 62));
  Alcotest.(check int) "(-4)^31 = min_int" min_int (Combi.power (-4) 31);
  Alcotest.(check int) "min_int^1" min_int (Combi.power min_int 1);
  Alcotest.(check int) "min_int^0" 1 (Combi.power min_int 0);
  Alcotest.(check int) "(-1)^63" (-1) (Combi.power (-1) 63);
  Alcotest.(check int) "0^0" 1 (Combi.power 0 0);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Combi.power: negative exponent") (fun () ->
      ignore (Combi.power 2 (-1)))

let prop_binomial_pascal (n, r) =
  let n = 1 + (abs n mod 25) and r = abs r mod 25 in
  if r > n || r = 0 then true
  else Combi.binomial n r = Combi.binomial (n - 1) (r - 1) + Combi.binomial (n - 1) r

(* Regression: binomial used to wrap silently near the native-int
   limit.  C(62,31) and C(60,30) are representable and must be exact;
   C(66,33) exceeds max_int and must raise, not wrap. *)
let test_binomial_boundary () =
  Alcotest.(check int) "C(62,31)" 465428353255261088 (Combi.binomial 62 31);
  Alcotest.(check int) "C(61,30)" 232714176627630544 (Combi.binomial 61 30);
  Alcotest.(check int) "C(60,30)" 118264581564861424 (Combi.binomial 60 30);
  Alcotest.(check bool) "C(62,31) positive (no wraparound)" true
    (Combi.binomial 62 31 > 0);
  Alcotest.check_raises "C(66,33) overflows"
    (Failure "Combi.binomial: overflow") (fun () ->
      ignore (Combi.binomial 66 33));
  Alcotest.check_raises "C(100,50) overflows"
    (Failure "Combi.binomial: overflow") (fun () ->
      ignore (Combi.binomial 100 50))

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_emit () =
  Alcotest.(check string) "compact"
    {|{"a":1,"b":[true,null,"x\"y"],"c":-2.5}|}
    (Json.to_string
       (Json.Obj
          [ ("a", Json.Int 1);
            ("b", Json.List [ Json.Bool true; Json.Null; Json.String "x\"y" ]);
            ("c", Json.Float (-2.5)) ]));
  Alcotest.(check string) "integral float keeps point" "1.0"
    (Json.to_string (Json.Float 1.0));
  Alcotest.(check string) "nan literal" "NaN"
    (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "escapes" "\"\\n\\t\\\\\\u0001\""
    (Json.to_string (Json.String "\n\t\\\x01"))

let test_json_roundtrip () =
  let docs =
    [ Json.Null; Json.Bool false; Json.Int max_int; Json.Int min_int;
      Json.Int 0; Json.Float 0.1; Json.Float 1e-300; Json.Float (-3.75);
      Json.Float 6.02214076e23; Json.String ""; Json.String "caf\xc3\xa9 \\ \"q\"";
      Json.List [];
      Json.Obj
        [ ("rows", Json.List [ Json.Int 1; Json.Float 2.5 ]);
          ("nested", Json.Obj [ ("deep", Json.List [ Json.Null ]) ]) ] ]
  in
  List.iter
    (fun d ->
      let s = Json.to_string d in
      Alcotest.(check bool) ("roundtrip " ^ s) true (Json.of_string s = d);
      let p = Json.to_string_pretty d in
      Alcotest.(check bool) ("pretty roundtrip " ^ s) true
        (Json.of_string p = d))
    docs

(* Regression: non-finite floats used to be emitted as [null], which
   silently destroyed the value on a decode/re-encode cycle.  They now
   round-trip through the Python-compatible extension literals. *)
let test_json_nonfinite_roundtrip () =
  Alcotest.(check string) "+inf" "Infinity"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "-inf" "-Infinity"
    (Json.to_string (Json.Float Float.neg_infinity));
  Alcotest.(check bool) "parse NaN" true
    (match Json.of_string "NaN" with
    | Json.Float f -> Float.is_nan f
    | _ -> false);
  Alcotest.(check bool) "parse Infinity" true
    (Json.of_string "Infinity" = Json.Float Float.infinity);
  Alcotest.(check bool) "parse -Infinity" true
    (Json.of_string "-Infinity" = Json.Float Float.neg_infinity);
  (* nested, compact and pretty *)
  let doc =
    Json.Obj
      [ ("lo", Json.Float Float.neg_infinity);
        ("hi", Json.List [ Json.Float Float.infinity; Json.Int (-3) ]) ]
  in
  Alcotest.(check bool) "nested compact" true
    (Json.of_string (Json.to_string doc) = doc);
  Alcotest.(check bool) "nested pretty" true
    (Json.of_string (Json.to_string_pretty doc) = doc);
  (* a NaN inside a document survives (compare via is_nan, not =) *)
  (match Json.of_string (Json.to_string (Json.List [ Json.Float Float.nan ])) with
  | Json.List [ Json.Float f ] ->
      Alcotest.(check bool) "nested nan" true (Float.is_nan f)
  | v -> Alcotest.failf "unexpected parse: %s" (Json.to_string v));
  (* -0.0 keeps its sign and does not collide with the -Infinity path *)
  Alcotest.(check string) "-0.0 emit" "-0.0" (Json.to_string (Json.Float (-0.0)));
  Alcotest.(check bool) "-0.0 bit-exact" true
    (match Json.of_string "-0.0" with
    | Json.Float f -> Int64.bits_of_float f = Int64.bits_of_float (-0.0)
    | _ -> false)

(* Strings containing arbitrary control characters must survive an
   emit/parse cycle via \u escapes. *)
let prop_json_control_string_roundtrip seed =
  let g = Prng.create seed in
  let len = Prng.int g 40 in
  let s = String.init len (fun _ -> Char.chr (Prng.int g 128)) in
  Json.of_string (Json.to_string (Json.String s)) = Json.String s

let prop_json_float_roundtrip x =
  (* Any finite float must survive emit/parse bit-exactly. *)
  (not (Float.is_finite x))
  ||
  match Json.of_string (Json.to_string (Json.Float x)) with
  | Json.Float y -> Int64.bits_of_float y = Int64.bits_of_float x
  | Json.Int y -> float_of_int y = x
  | _ -> false

(* The cursor skips a value with exactly the checks [of_string] makes,
   and slices escape-free strings out of the text itself. *)
let test_json_cursor () =
  let outcome f = match f () with () -> "ok" | exception Failure m -> m in
  List.iter
    (fun s ->
      let parsed = outcome (fun () -> ignore (Json.of_string s)) in
      let skipped =
        outcome (fun () ->
            let c = Json.Cursor.create s in
            Json.Cursor.skip c;
            Json.Cursor.finish c)
      in
      Alcotest.(check string) (Printf.sprintf "skip %S" s) parsed skipped)
    [ "{\"a\":[1,2.5,\"x\\u0041\"]}"; "[1,"; "\"abc"; "\"a\\q\""; "{\"a\" 1}";
      "[1 2]"; "nul"; "-Infinity"; "\"\\ud800\\u0041\""; "[] x"; ""; "1e" ];
  let c = Json.Cursor.create "  \"0110\" \"0\\u0031\"" in
  let s, off, len = Json.Cursor.slice c in
  Alcotest.(check string) "plain literal" "0110" (String.sub s off len);
  Alcotest.(check int) "a view of the text, not a copy" 3 off;
  let s, off, len = Json.Cursor.slice c in
  Alcotest.(check string) "escaped literal decoded" "01" (String.sub s off len);
  Alcotest.(check bool) "at the end" false (Json.Cursor.next_is c '"')

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Failure _ -> ()
      | v ->
          Alcotest.failf "expected parse failure on %S, got %s" s
            (Json.to_string v))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{1:2}";
      "[1] trailing" ];
  (* member lookup *)
  let o = Json.of_string {|{"x": 3, "y": [1]}|} in
  Alcotest.(check bool) "member hit" true (Json.member "x" o = Some (Json.Int 3));
  Alcotest.(check bool) "member miss" true (Json.member "z" o = None)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_matches_sequential () =
  let input = Array.init 257 (fun i -> i) in
  let f i = (i * i) + 1 in
  let expect = Array.map f input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d" jobs)
            expect
            (Pool.parallel_map pool f input)))
    [ 1; 2; 4 ]

let test_pool_for_covers_all_indices () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let n = 1000 in
      let marks = Array.init n (fun _ -> Atomic.make 0) in
      Pool.parallel_for pool ~chunk:7 n (fun i -> Atomic.incr marks.(i));
      Array.iteri
        (fun i a ->
          if Atomic.get a <> 1 then
            Alcotest.failf "index %d visited %d times" i (Atomic.get a))
        marks)

(* The determinism contract the bench harness relies on: a seeded
   Monte-Carlo workload (E3-style — per-item PRNG draws feeding float
   accumulation) must be bit-identical at any job count. *)
let test_pool_seeded_deterministic () =
  let work g x =
    let acc = ref (float_of_int x) in
    for _ = 1 to 100 do
      acc := !acc +. Prng.float g -. (0.5 *. float_of_int (Prng.int g 3))
    done;
    !acc
  in
  let run jobs =
    Pool.with_pool ~jobs (fun pool ->
        Pool.parallel_map_seeded pool (Prng.create 9) work
          (Array.init 64 (fun i -> i)))
  in
  let r1 = run 1 and r4 = run 4 in
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float r4.(i) then
        Alcotest.failf "element %d differs: %.17g vs %.17g" i v r4.(i))
    r1

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "worker exception reaches caller"
        (Failure "boom-17") (fun () ->
          ignore
            (Pool.parallel_map pool
               (fun i -> if i = 17 then failwith "boom-17" else i)
               (Array.init 64 (fun i -> i))));
      (* the pool must still be usable after a failed batch *)
      Alcotest.(check (array int)) "pool survives" [| 0; 2; 4 |]
        (Pool.parallel_map pool (fun i -> 2 * i) [| 0; 1; 2 |]))

let test_pool_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

(* ------------------------------------------------------------------ *)
(* Txtable: packed transposition table                                 *)
(* ------------------------------------------------------------------ *)

module Tx = Commx_util.Txtable

let test_txtable_roundtrip () =
  (* Starting tiny forces several grows; every key must remain findable
     with its LAST stored value (no budget, so nothing is ever
     evicted). *)
  let t = Tx.create ~initial_bits:2 () in
  let g = Prng.create 77 in
  let keys = Array.init 1000 (fun i -> (i * 7919) + Prng.int g 3) in
  Array.iteri (fun i k -> Tx.set t k i) keys;
  Array.iteri (fun i k -> Tx.set t k (i * 2)) keys;
  let missing = ref 0 in
  Array.iteri
    (fun i k ->
      match Tx.find t k with
      | -1 -> incr missing
      | v -> Alcotest.(check int) "last write wins" (i * 2) v)
    keys;
  Alcotest.(check int) "no evictions without budget" 0 (Tx.stats t).Tx.evictions;
  Alcotest.(check int) "everything findable" 0 !missing;
  (* distinct keys only: duplicates from the +Prng.int jitter are
     possible in principle but 7919 steps dwarf jitter 0..2 *)
  Alcotest.(check int) "size = distinct keys" 1000 (Tx.length t)

let test_txtable_collisions_never_lie () =
  (* A saturated bounded table evicts, so [find] may miss — but it must
     NEVER return a value that was stored under a different key.  Keys
     are spread over a range vastly larger than the budget to force
     both collisions and evictions. *)
  let t = Tx.create ~budget_entries:64 ~initial_bits:4 () in
  let reference = Hashtbl.create 512 in
  let g = Prng.create 41 in
  for i = 0 to 4999 do
    let k = Prng.int g 1_000_000_000 in
    Hashtbl.replace reference k (i land 0xff);
    Tx.set t k (i land 0xff)
  done;
  Alcotest.(check bool) "capacity bounded by budget" true (Tx.capacity t <= 64);
  let st = Tx.stats t in
  Alcotest.(check bool) "evictions occurred" true (st.Tx.evictions > 0);
  Alcotest.(check int) "stores counted" 5000 st.Tx.stores;
  Hashtbl.iter
    (fun k v ->
      match Tx.find t k with
      | -1 -> () (* evicted: a miss is allowed *)
      | found -> Alcotest.(check int) "hit returns the key's own value" v found)
    reference

let test_txtable_deterministic () =
  (* Same insertion sequence => identical table state and identical
     hit/miss/eviction statistics, eviction policy included.  The
     engine's jobs-invariance rests on this. *)
  let run () =
    let t = Tx.create ~budget_entries:128 ~initial_bits:4 () in
    let g = Prng.create 1234 in
    for i = 0 to 9999 do
      let k = Prng.int g 100_000 in
      if i land 1 = 0 then Tx.set t k i else ignore (Tx.find t k)
    done;
    let probes = Array.init 500 (fun i -> Tx.find t (i * 191)) in
    (Tx.stats t, Tx.length t, probes)
  in
  let s1, n1, p1 = run () in
  let s2, n2, p2 = run () in
  Alcotest.(check int) "hits" s1.Tx.hits s2.Tx.hits;
  Alcotest.(check int) "misses" s1.Tx.misses s2.Tx.misses;
  Alcotest.(check int) "evictions" s1.Tx.evictions s2.Tx.evictions;
  Alcotest.(check int) "stores" s1.Tx.stores s2.Tx.stores;
  Alcotest.(check int) "length" n1 n2;
  Alcotest.(check (array int)) "probe results" p1 p2

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_txtable_snapshot_roundtrip () =
  (* save -> JSON text -> load preserves every entry, the capacity and
     the budget; a loaded table starts with clean statistics.  This is
     the serve daemon's persistence path. *)
  let t = Tx.create ~initial_bits:4 () in
  let g = Prng.create 5 in
  let keys = Array.init 700 (fun i -> (i * 524287) + Prng.int g 7) in
  Array.iteri (fun i k -> Tx.set t k (i land 0xff)) keys;
  let doc = Json.of_string (Json.to_string (Tx.save t)) in
  let t' = Tx.load doc in
  let st = Tx.stats t' in
  Alcotest.(check int) "loaded stats: hits" 0 st.Tx.hits;
  Alcotest.(check int) "loaded stats: misses" 0 st.Tx.misses;
  Alcotest.(check int) "loaded stats: stores" 0 st.Tx.stores;
  Alcotest.(check int) "entries preserved" (Tx.length t) (Tx.length t');
  Alcotest.(check int) "capacity preserved" (Tx.capacity t) (Tx.capacity t');
  Alcotest.(check (option int))
    "budget preserved" (Tx.budget_entries t) (Tx.budget_entries t');
  Tx.iter t (fun k v ->
      Alcotest.(check int) "entry value preserved" v (Tx.find t' k))

let test_txtable_snapshot_budget_semantics () =
  (* The budget survives the round-trip as a live constraint, not just
     a recorded number: the loaded table keeps refusing to grow past
     it. *)
  let t = Tx.create ~budget_entries:64 ~initial_bits:4 () in
  let g = Prng.create 6 in
  for i = 0 to 199 do
    Tx.set t (Prng.int g 1_000_000_000) (i land 0xff)
  done;
  let t' = Tx.load (Tx.save t) in
  Alcotest.(check (option int)) "budget recorded" (Some 64) (Tx.budget_entries t');
  for i = 0 to 999 do
    Tx.set t' (Prng.int g 1_000_000_000) (i land 0xff)
  done;
  Alcotest.(check bool) "budget enforced after load" true (Tx.capacity t' <= 64);
  Alcotest.(check bool)
    "loaded table evicts at budget" true ((Tx.stats t').Tx.evictions > 0)

let expect_load_failure name doc fragment =
  match Tx.load doc with
  | _ -> Alcotest.failf "%s: corrupt snapshot was accepted" name
  | exception Failure msg ->
      if not (contains_substring msg fragment) then
        Alcotest.failf "%s: error %S does not mention %S" name msg fragment

let test_txtable_snapshot_rejects_garbage () =
  let t = Tx.create ~initial_bits:3 () in
  Tx.set t 1 2;
  let doc = Tx.save t in
  let patch key v =
    match doc with
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
    | _ -> assert false
  in
  expect_load_failure "not an object" (Json.Int 3) "not a JSON object";
  expect_load_failure "wrong format" (patch "format" (Json.String "zoo"))
    "not a txtable snapshot";
  expect_load_failure "missing format"
    (Json.Obj [ ("version", Json.Int Tx.snapshot_version) ])
    "format";
  (* A future version must be rejected with both versions named, so the
     operator can tell which side is stale. *)
  expect_load_failure "future version"
    (patch "version" (Json.Int (Tx.snapshot_version + 1)))
    (Printf.sprintf "version %d" (Tx.snapshot_version + 1));
  expect_load_failure "capacity out of range" (patch "capacity_bits" (Json.Int 99))
    "out of range";
  expect_load_failure "negative key"
    (patch "entries" (Json.List [ Json.List [ Json.Int (-1); Json.Int 0 ] ]))
    "negative key";
  expect_load_failure "malformed entry"
    (patch "entries" (Json.List [ Json.String "zap" ]))
    "pair";
  (* The happy path still works after all that prodding. *)
  let t' = Tx.load doc in
  Alcotest.(check int) "intact snapshot still loads" 2 (Tx.find t' 1)

let test_txtable_clear_and_validation () =
  let t = Tx.create ~initial_bits:3 () in
  Tx.set t 42 7;
  Alcotest.(check int) "stored" 7 (Tx.find t 42);
  Tx.clear t;
  Alcotest.(check int) "cleared" (-1) (Tx.find t 42);
  Alcotest.(check int) "empty" 0 (Tx.length t);
  Alcotest.check_raises "negative key rejected"
    (Invalid_argument "Txtable.set: negative key") (fun () -> Tx.set t (-1) 0);
  Alcotest.check_raises "negative value rejected"
    (Invalid_argument "Txtable.set: negative value") (fun () -> Tx.set t 1 (-2));
  Alcotest.check_raises "bad initial_bits"
    (Invalid_argument "Txtable.create: initial_bits out of range") (fun () ->
      ignore (Tx.create ~initial_bits:0 ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "util"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "copy independent" `Quick
            test_prng_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_prng_split_diverges;
          Alcotest.test_case "stream pinned" `Quick test_prng_stream_pinned;
          Alcotest.test_case "rough uniformity" `Quick
            test_prng_uniformity_rough;
          qtest "int in range" QCheck.small_int prop_int_in_range;
          qtest "int_incl in range" QCheck.small_int prop_int_incl_in_range;
          qtest "shuffle permutes" QCheck.small_int prop_shuffle_is_permutation;
          qtest "sampling distinct" QCheck.small_int
            prop_sample_without_replacement_distinct;
          qtest "float in [0,1)" QCheck.small_int prop_float_unit ] );
      ( "bitvec",
        [ Alcotest.test_case "basic + word boundary" `Quick test_bitvec_basic;
          Alcotest.test_case "bounds check" `Quick test_bitvec_bounds;
          qtest "string roundtrip" QCheck.small_int
            prop_bitvec_string_roundtrip;
          qtest "int roundtrip" QCheck.int prop_bitvec_int_roundtrip;
          qtest "xor self = 0" QCheck.small_int prop_bitvec_xor_self;
          qtest "fold matches popcount" QCheck.small_int
            prop_bitvec_fold_matches_popcount;
          qtest "fold ascending over set bits" QCheck.small_int
            prop_bitvec_fold_ascending;
          qtest "append/sub" QCheck.small_int prop_bitvec_append_sub;
          qtest "compare total order" QCheck.small_int
            prop_bitvec_compare_total ] );
      ( "bitmat",
        [ Alcotest.test_case "identity mul" `Quick test_bitmat_mul_identity;
          Alcotest.test_case "known ranks" `Quick test_bitmat_rank_known;
          qtest "mul associative" QCheck.small_int prop_bitmat_mul_assoc;
          qtest "transpose involution" QCheck.small_int
            prop_bitmat_transpose_involution;
          qtest "rank transpose" QCheck.small_int prop_bitmat_rank_transpose;
          qtest "rank bounds" QCheck.small_int prop_bitmat_rank_bounds;
          qtest "submatrix" QCheck.small_int prop_bitmat_submatrix;
          Alcotest.test_case "rank_batch edges" `Quick test_bitmat_rank_batch;
          Alcotest.test_case "content key" `Quick test_bitmat_key;
          Alcotest.test_case "of_packed_rows" `Quick test_bitmat_of_packed_rows ] );
      ( "stats",
        [ Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "fits" `Quick test_stats_fit;
          Alcotest.test_case "errors" `Quick test_stats_errors;
          Alcotest.test_case "percentile/median consistency" `Quick
            test_stats_percentile;
          Alcotest.test_case "percentile pathological" `Quick
            test_stats_percentile_pathological;
          qtest "variance nonneg" QCheck.small_int prop_variance_nonneg ] );
      ( "traffic",
        [ Alcotest.test_case "mix parsing" `Quick test_traffic_parse_mix;
          Alcotest.test_case "stream deterministic" `Quick
            test_traffic_stream_deterministic;
          Alcotest.test_case "stream respects mix" `Quick
            test_traffic_stream_respects_mix ] );
      ( "tab",
        [ Alcotest.test_case "render aligned" `Quick test_tab_render;
          Alcotest.test_case "width mismatch" `Quick test_tab_width_mismatch;
          Alcotest.test_case "formatters" `Quick test_tab_formats ] );
      ( "combi",
        [ Alcotest.test_case "iter_tuples" `Quick test_iter_tuples;
          Alcotest.test_case "iter_subsets" `Quick test_iter_subsets;
          Alcotest.test_case "iter_combinations" `Quick test_iter_combinations;
          Alcotest.test_case "iter_permutations" `Quick test_iter_permutations;
          Alcotest.test_case "binomial/factorial/power" `Quick
            test_binomial_factorial_power;
          Alcotest.test_case "binomial native-int boundary" `Quick
            test_binomial_boundary;
          Alcotest.test_case "power native-int boundary" `Quick
            test_power_boundary;
          qtest "pascal identity" QCheck.(pair int int) prop_binomial_pascal ] );
      ( "json",
        [ Alcotest.test_case "emitter" `Quick test_json_emit;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "non-finite roundtrip" `Quick
            test_json_nonfinite_roundtrip;
          Alcotest.test_case "parse errors + member" `Quick
            test_json_parse_errors;
          Alcotest.test_case "cursor skip + slice" `Quick test_json_cursor;
          qtest "float roundtrip bit-exact" QCheck.float
            prop_json_float_roundtrip;
          qtest "control-char string roundtrip" QCheck.small_int
            prop_json_control_string_roundtrip ] );
      ( "txtable",
        [ Alcotest.test_case "grow + last-write-wins roundtrip" `Quick
            test_txtable_roundtrip;
          Alcotest.test_case "bounded table never lies" `Quick
            test_txtable_collisions_never_lie;
          Alcotest.test_case "deterministic stats + state" `Quick
            test_txtable_deterministic;
          Alcotest.test_case "snapshot roundtrip" `Quick
            test_txtable_snapshot_roundtrip;
          Alcotest.test_case "snapshot budget semantics" `Quick
            test_txtable_snapshot_budget_semantics;
          Alcotest.test_case "snapshot rejects garbage" `Quick
            test_txtable_snapshot_rejects_garbage;
          Alcotest.test_case "clear + argument validation" `Quick
            test_txtable_clear_and_validation ] );
      ( "pool",
        [ Alcotest.test_case "map matches sequential" `Quick
            test_pool_map_matches_sequential;
          Alcotest.test_case "for covers all indices" `Quick
            test_pool_for_covers_all_indices;
          Alcotest.test_case "seeded map jobs-invariant" `Quick
            test_pool_seeded_deterministic;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "invalid jobs" `Quick test_pool_invalid_jobs ] )
    ]
