(* The benchmark's own arithmetic and input generation. *)

open Ccbench
module Json = Commx_util.Json
module Bm = Commx_util.Bitmat
module E = Commx_comm.Exact_cc

let test_percentile_rule () =
  (* p99 of 1000 samples sits at sorted position 989.01: indices 990..999
     lie beyond it.  The interpolated p99 first has ten beyond it at 902
     samples (position 891.99), and p90 at 92 (position 81.9). *)
  Alcotest.(check int) "1000 @ p99" 10 (Arith.samples_beyond ~n:1000 ~p:99.0);
  Alcotest.(check bool) "p99 of 902" true (Arith.tail_supported ~n:902 ~p:99.0);
  Alcotest.(check bool) "p99 of 901" false (Arith.tail_supported ~n:901 ~p:99.0);
  Alcotest.(check int) "100 @ p90" 10 (Arith.samples_beyond ~n:100 ~p:90.0);
  Alcotest.(check bool) "p90 of 92" true (Arith.tail_supported ~n:92 ~p:90.0);
  Alcotest.(check bool) "p90 of 91" false (Arith.tail_supported ~n:91 ~p:90.0);
  (* The highest percentile with ten beyond: position n-11 exactly. *)
  Alcotest.(check (option (float 1e-9))) "too few" None (Arith.highest_supported ~n:10);
  (match Arith.highest_supported ~n:230 with
  | Some p ->
      Alcotest.(check int) "ten beyond the top" 10 (Arith.samples_beyond ~n:230 ~p);
      (* One sorted position up, only nine are left beyond. *)
      Alcotest.(check bool) "next sample up" false
        (Arith.tail_supported ~n:230 ~p:(p +. (100.0 /. 229.0)))
  | None -> Alcotest.fail "230 samples support a tail");
  Alcotest.(check int) "empty" 0 (Arith.samples_beyond ~n:0 ~p:50.0);
  Alcotest.(check (float 1e-9)) "empty percentile" 0.0 (Arith.percentile [||] 50.0);
  Alcotest.(check (float 1e-9)) "interpolated median" 2.5
    (Arith.percentile [| 4.0; 1.0; 3.0; 2.0 |] 50.0)

let test_windows () =
  (* Ten windows over [0, 10): one per second. *)
  Alcotest.(check int) "first" 0 (Arith.window ~t0:0.0 ~t1:10.0 ~k:10 0.0);
  Alcotest.(check int) "last edge" 9 (Arith.window ~t0:0.0 ~t1:10.0 ~k:10 10.0);
  Alcotest.(check int) "middle" 4 (Arith.window ~t0:0.0 ~t1:10.0 ~k:10 4.5);
  (* 100 requests a second, except one stalled second with 10: the
     median rate ignores the stall, the mean would not. *)
  let ends =
    Array.concat
      (List.init 10 (fun w ->
           let n = if w = 3 then 10 else 100 in
           Array.init n (fun i -> float_of_int w +. (float_of_int i /. float_of_int n))))
  in
  Alcotest.(check (float 1e-9)) "median rate" 100.0
    (Arith.windowed_rate ~t0:0.0 ~t1:10.0 ~k:10 ends);
  (* With 1000 samples a window, every window supports p99, and the
     median over windows ignores one window of slow samples. *)
  let samples =
    Array.concat
      (List.init 10 (fun w ->
           Array.init 1000 (fun i ->
               let v = if w = 7 then 50.0 else float_of_int (i mod 100) in
               (float_of_int w +. 0.5, v))))
  in
  let one_window = Arith.percentile (Array.init 1000 (fun i -> float_of_int (i mod 100))) 99.0 in
  Alcotest.(check (float 1e-9)) "windowed p99" one_window
    (Arith.windowed_percentile ~t0:0.0 ~t1:10.0 ~k:10 samples 99.0);
  Alcotest.(check bool) "whole phase differs" true
    (Arith.percentile (Array.map snd samples) 99.0 <> one_window);
  (* Too few samples a window: the percentile of the whole phase. *)
  let few = Array.init 20 (fun i -> (float_of_int (i / 2), float_of_int i)) in
  Alcotest.(check (float 1e-9)) "falls back" (Arith.percentile (Array.map snd few) 90.0)
    (Arith.windowed_percentile ~t0:0.0 ~t1:10.0 ~k:10 few 90.0)

let test_failure_share () =
  Alcotest.(check (float 1e-12)) "share" 0.25
    (Arith.failure_share ~attempted:8 ~failed:2);
  Alcotest.(check (float 1e-12)) "nothing attempted" 0.0
    (Arith.failure_share ~attempted:0 ~failed:0);
  Alcotest.(check (float 1e-12)) "ratio" 0.5 (Arith.ratio 1 2);
  Alcotest.(check (float 1e-12)) "ratio of nothing" 0.0 (Arith.ratio 0 0)

let test_residual () =
  Alcotest.(check (float 1e-9)) "rtt minus stages" 60.0
    (Arith.residual ~total:100.0 ~stages:[ 12.0; 16.0; 22.0; -10.0 ]);
  Alcotest.(check (float 1e-9)) "no stages" 7.0 (Arith.residual ~total:7.0 ~stages:[])

let test_digest () =
  let d = Arith.digest [| "cc=3"; "singular=true" |] in
  Alcotest.(check string) "stable" d (Arith.digest [| "cc=3"; "singular=true" |]);
  Alcotest.(check bool) "order matters" true
    (d <> Arith.digest [| "singular=true"; "cc=3" |]);
  (* The separator keeps ["ab"; ""] and ["a"; "b"] apart. *)
  Alcotest.(check bool) "boundaries" true
    (Arith.digest [| "ab"; "" |] <> Arith.digest [| "a"; "b" |]);
  Alcotest.(check string) "empty" "3bf29ce484222325" (Arith.digest [||])

let test_self_time () =
  let s = Spans.create () in
  let root = Spans.fresh_id s in
  ignore (Spans.add s ~req:7 ~parent:root ~name:"parse" ~start_ns:10 ~dur_ns:30);
  ignore (Spans.add s ~req:7 ~parent:root ~name:"kernel" ~start_ns:40 ~dur_ns:50);
  Spans.push s ~id:root ~req:7 ~parent:0 ~name:"request" ~start_ns:0 ~dur_ns:100;
  let self name =
    Hashtbl.find (Spans.self_ns_by_req (Spans.spans s) name) 7
  in
  Alcotest.(check int) "request self" 20 (self "request");
  Alcotest.(check int) "leaf self" 50 (self "kernel")

let show m = String.concat "." (Gen.rows_of_board m)
let lines payloads = List.map (fun p -> Gen.line ~id:0 p) payloads

let test_streams () =
  let mix seed =
    Array.to_list
      (Array.map (fun r -> Gen.line ~id:0 (Gen.mix_payload r)) (Gen.mix_stream ~seed ~count:50))
  in
  Alcotest.(check (list string)) "mix per seed" (mix 3) (mix 3);
  Alcotest.(check bool) "mix differs by seed" true (mix 3 <> mix 4);
  let hot seed =
    let set = Gen.hot_set ~seed and pick = Gen.hot_picker ~seed in
    List.init 20 (fun _ -> show set.(pick ()))
  in
  Alcotest.(check (list string)) "hot per seed" (hot 5) (hot 5);
  Alcotest.(check bool) "hot differs by seed" true (hot 5 <> hot 6);
  Alcotest.(check (list string)) "batch per seed"
    (lines [ Gen.batch ~seed:1 7 ]) (lines [ Gen.batch ~seed:1 7 ]);
  Alcotest.(check bool) "batches differ" true
    (lines [ Gen.batch ~seed:1 7 ] <> lines [ Gen.batch ~seed:1 8 ])

let corpus =
  Gen.parse_corpus
    "# header\n\
     rank_fooling 4 0 100000000 010000000 001000000 000100000 000010000 000001000 000000100 000000010 000000001\n\
     log_rank 4 0 000000011 000000101 000001001 000010001 000100001 001000001 010000001 100000001 111111110\n\
     search 5 20 110000000 011000000 001100000 000110000 000011000 000001100 000000110 000000011 100000001\n"

let test_engine_stream () =
  let draw seed =
    let f = Gen.engine_stream ~seed corpus in
    List.init 45 (fun i ->
        let c = f i in
        (Gen.path_name c.Gen.path, show c.Gen.board))
  in
  Alcotest.(check (list (pair string string))) "per seed" (draw 9) (draw 9);
  Alcotest.(check bool) "differs by seed" true (draw 9 <> draw 10);
  (* Board i depends on the seed and i only, not on the call order. *)
  Alcotest.(check (pair string string)) "out of order" (List.nth (draw 9) 33)
    (let c = Gen.engine_stream ~seed:9 corpus 33 in
     (Gen.path_name c.Gen.path, show c.Gen.board));
  Alcotest.(check (list string)) "layout"
    (List.init 45 (fun i -> Gen.path_name (Gen.path_at (i mod Gen.block))))
    (List.map fst (draw 9));
  Alcotest.(check (list int)) "natural shares per block" [ 11; 6; 3 ]
    (List.map Gen.per_block [ Gen.Rank_fooling; Gen.Log_rank; Gen.Search ]);
  (* Relabeling permutes rows and columns: the row weights survive. *)
  let weights m =
    List.sort compare
      (List.init (Bm.rows m) (fun i ->
           List.length (List.filter Fun.id (List.init (Bm.cols m) (Bm.get m i)))))
  in
  let c = Gen.engine_stream ~seed:2 corpus 4 in
  let orig = List.find (fun x -> x.Gen.path = Gen.Log_rank) corpus in
  Alcotest.(check (list int)) "relabel keeps rows" (weights orig.Gen.board) (weights c.Gen.board);
  Alcotest.(check string) "corpus line round trip"
    (Gen.corpus_line orig)
    (Gen.corpus_line (List.hd (Gen.parse_corpus (Gen.corpus_line orig))));
  (* The committed corpus: its sizes, and every root board takes the
     path it is filed under and settles at its value with zero nodes. *)
  let committed =
    Gen.parse_corpus (In_channel.with_open_bin "../data/engine_corpus.txt" In_channel.input_all)
  in
  List.iter
    (fun p ->
      Alcotest.(check int) ("corpus size " ^ Gen.path_name p) (Gen.corpus_size p)
        (List.length (List.filter (fun c -> c.Gen.path = p) committed)))
    [ Gen.Rank_fooling; Gen.Log_rank; Gen.Search ];
  List.iter
    (fun c ->
      let path = Gen.path_name c.Gen.path in
      Alcotest.(check string) "path" path (Gen.path_name (Stage.root_path c.Gen.board));
      if c.Gen.path <> Gen.Search then begin
        let v, st = E.search c.Gen.board in
        Alcotest.(check (pair int int)) ("root value " ^ path) (c.Gen.cc, 0) (v, st.E.nodes)
      end)
    committed

let test_answers () =
  let m = Bm.init 4 4 (fun i j -> i = j) in
  let payload = Gen.P_exact m in
  let like = Stage.reference payload in
  let v, _ = E.search m in
  let reply extra = Json.Obj (("ok", Json.Bool true) :: (like @ extra)) in
  Alcotest.(check bool) "reference agrees" true (Stage.agrees ~like payload (reply []));
  Alcotest.(check bool) "wrong value" false
    (Stage.agrees ~like payload
       (Json.Obj
          (List.map
             (fun (k, x) -> if k = "value" then (k, Json.Int (v + 1)) else (k, x))
             like)));
  Alcotest.(check bool) "missing field" false
    (Stage.agrees ~like payload (Json.Obj (List.tl like)));
  (* The staged pipeline answers what the reference answers. *)
  let p = Stage.pipeline () in
  let line = Gen.line ~id:0 payload in
  let first = Json.of_string (Stage.handle p ~req:0 line) in
  let again = Json.of_string (Stage.handle p ~req:1 line) in
  Alcotest.(check bool) "pipeline miss" true (Stage.agrees ~like payload first);
  Alcotest.(check bool) "pipeline hit" true (Stage.agrees ~like payload again);
  Alcotest.(check (option string)) "second is a hit" (Some "hit")
    (match Json.member "cache" again with Some (Json.String s) -> Some s | _ -> None)

let () =
  Alcotest.run "perfbench"
    [ ( "arith",
        [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "windowed medians" `Quick test_windows;
          Alcotest.test_case "failure share" `Quick test_failure_share;
          Alcotest.test_case "residual" `Quick test_residual;
          Alcotest.test_case "answers digest" `Quick test_digest;
          Alcotest.test_case "span self time" `Quick test_self_time ] );
      ( "inputs",
        [ Alcotest.test_case "streams per seed" `Quick test_streams;
          Alcotest.test_case "engine stream" `Quick test_engine_stream;
          Alcotest.test_case "answers" `Quick test_answers ] ) ]
