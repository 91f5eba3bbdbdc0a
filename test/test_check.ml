(* Tests for the Commx_check differential-fuzzing harness itself:
   deterministic replay, shrinking, exception capture, budgets — plus a
   smoke run of the real suite. *)

module Gen = Commx_check.Gen
module Shrink = Commx_check.Shrink
module Property = Commx_check.Property
module Runner = Commx_check.Runner
module Suite = Commx_check.Suite

let strip_wall (r : Runner.report) = (r.name, r.cases, r.outcome)

(* A property that fails on any value above a threshold; with
   [Shrink.int] the greedy shrinker must converge to the smallest
   failing value. *)
let above_threshold name =
  Property.make ~name
    ~gen:(Gen.int_range 0 10_000)
    ~shrink:Shrink.int ~show:string_of_int
    (fun x -> if x > 100 then Some "above threshold" else None)

let test_runner_deterministic () =
  let prop =
    Property.make ~name:"det.pair"
      ~gen:(Gen.pair Gen.any_int (Gen.int_range 0 99))
      ~show:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b)
      (fun _ -> None)
  in
  let r1 = Runner.run_one ~seed:42 ~count:200 prop in
  let r2 = Runner.run_one ~seed:42 ~count:200 prop in
  Alcotest.(check bool) "same outcome" true (strip_wall r1 = strip_wall r2);
  Alcotest.(check int) "all cases ran" 200 r1.Runner.cases;
  (* failing runs replay identically too, witness included *)
  let f1 = Runner.run_one ~seed:7 ~count:500 (above_threshold "det.fail") in
  let f2 = Runner.run_one ~seed:7 ~count:500 (above_threshold "det.fail") in
  Alcotest.(check bool) "same failure" true (strip_wall f1 = strip_wall f2);
  match f1.Runner.outcome with
  | Runner.Pass -> Alcotest.fail "expected a failure"
  | Runner.Failed f ->
      Alcotest.(check int) "case seed derivable" f.Runner.case_seed
        (Runner.case_seed ~seed:7 ~name:"det.fail" ~index:f.Runner.case_index)

let test_case_seed_order_independent () =
  (* Case seeds depend on (master seed, name, index) only, so the same
     property yields the same stream wherever it sits in the list. *)
  let s = Runner.case_seed ~seed:13 ~name:"a.b" ~index:4 in
  Alcotest.(check int) "stable" s
    (Runner.case_seed ~seed:13 ~name:"a.b" ~index:4);
  Alcotest.(check bool) "name matters" true
    (s <> Runner.case_seed ~seed:13 ~name:"a.c" ~index:4);
  Alcotest.(check bool) "index matters" true
    (s <> Runner.case_seed ~seed:13 ~name:"a.b" ~index:5);
  Alcotest.(check bool) "seed matters" true
    (s <> Runner.case_seed ~seed:14 ~name:"a.b" ~index:4)

let test_shrinker_converges () =
  match
    (Runner.run_one ~seed:1 ~count:1_000 (above_threshold "shrink.min"))
      .Runner.outcome
  with
  | Runner.Pass -> Alcotest.fail "expected a failure"
  | Runner.Failed f ->
      (* greedy descent over [0; x/2; x-1] candidates must reach the
         boundary value 101 from any starting failure *)
      Alcotest.(check string) "shrinks to smallest" "101"
        f.Runner.counterexample;
      Alcotest.(check bool) "records steps" true (f.Runner.shrink_steps > 0);
      Alcotest.(check bool) "keeps original" true
        (int_of_string f.Runner.original > 100)

let test_exception_is_failure () =
  let prop =
    Property.make ~name:"raises" ~gen:(Gen.int_range 0 9)
      ~show:string_of_int
      (fun x -> if x >= 0 then failwith "boom" else None)
  in
  match (Runner.run_one ~seed:3 ~count:10 prop).Runner.outcome with
  | Runner.Pass -> Alcotest.fail "expected a failure"
  | Runner.Failed f ->
      Alcotest.(check int) "first case fails" 0 f.Runner.case_index;
      Alcotest.(check bool) "message mentions exception" true
        (String.length f.Runner.message > 0)

let test_budget_and_filter () =
  let prop = above_threshold "budget.prop" in
  let r = Runner.run_one ~budget_s:0.0 ~seed:5 ~count:1_000 prop in
  Alcotest.(check int) "zero budget runs nothing" 0 r.Runner.cases;
  Alcotest.(check bool) "no cases means pass" true
    (r.Runner.outcome = Runner.Pass);
  let props = [ above_threshold "alpha.one"; above_threshold "beta.two" ] in
  let reports = Runner.run ~filter:"beta" ~seed:5 ~count:1 props in
  Alcotest.(check (list string)) "filter by substring" [ "beta.two" ]
    (List.map (fun (r : Runner.report) -> r.Runner.name) reports)

let test_suite_smoke () =
  (* The real differential suite must pass at a smoke count; this is
     the same tier CI runs through [ccmx check]. *)
  let reports = Runner.run ~seed:20260807 ~count:25 (Suite.all ()) in
  Alcotest.(check bool) "at least 6 optimized-vs-oracle pairs" true
    (List.length reports >= 6);
  List.iter
    (fun (r : Runner.report) ->
      match r.Runner.outcome with
      | Runner.Pass -> ()
      | Runner.Failed f ->
          Alcotest.failf "property %s failed on %s: %s" r.Runner.name
            f.Runner.counterexample f.Runner.message)
    reports;
  Alcotest.(check bool) "all_passed agrees" true (Runner.all_passed reports)

(* The properties added with the packed-word request path, at a
   count well past the smoke tier: the 62/63/64-column boundary, escapes,
   malformed boards and over-cap batches all need many draws. *)
let test_wire_and_key_properties () =
  let props =
    List.filter
      (fun p ->
        List.mem (Property.name p)
          [ "wire.bit_matrix_decode"; "exact_cc.canonical_key_classes";
            "json.roundtrip" ])
      (Suite.all ())
  in
  Alcotest.(check int) "three properties" 3 (List.length props);
  List.iter
    (fun (r : Runner.report) ->
      match r.Runner.outcome with
      | Runner.Pass -> ()
      | Runner.Failed f ->
          Alcotest.failf "property %s failed on %s: %s" r.Runner.name
            f.Runner.counterexample f.Runner.message)
    (Runner.run ~seed:20261017 ~count:1500 props)

let () =
  Alcotest.run "check"
    [ ( "runner",
        [ Alcotest.test_case "deterministic replay" `Quick
            test_runner_deterministic;
          Alcotest.test_case "case seeds order-independent" `Quick
            test_case_seed_order_independent;
          Alcotest.test_case "shrinker converges" `Quick
            test_shrinker_converges;
          Alcotest.test_case "exception counts as failure" `Quick
            test_exception_is_failure;
          Alcotest.test_case "budget + filter" `Quick test_budget_and_filter ] );
      ( "suite",
        [ Alcotest.test_case "differential suite smoke" `Quick
            test_suite_smoke;
          Alcotest.test_case "wire decode + content keys" `Quick
            test_wire_and_key_properties ] ) ]
