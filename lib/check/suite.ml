module Prng = Commx_util.Prng
module Bitvec = Commx_util.Bitvec
module Bitmat = Commx_util.Bitmat
module Txtable = Commx_util.Txtable
module Json = Commx_util.Json
module Wire = Commx_serve.Wire
module Stats = Commx_util.Stats
module Combi = Commx_util.Combi
module B = Commx_bigint.Bigint
module Mod = Commx_bigint.Modarith
module Zm = Commx_linalg.Zmatrix
module Exact_cc = Commx_comm.Exact_cc
module Tm = Commx_comm.Truth_matrix
module Fooling = Commx_comm.Fooling
module Rectangle = Commx_comm.Rectangle
module Rank_bound = Commx_comm.Rank_bound
module Params = Commx_core.Params
module H = Commx_core.Hard_instance
module L32 = Commx_core.Lemma32
module L35 = Commx_core.Lemma35

(* Run labelled sub-checks in order; the first failing label is the
   divergence message (the printed counterexample carries the data). *)
let all_of checks =
  List.fold_left
    (fun acc (label, f) ->
      match acc with
      | Some _ -> acc
      | None -> if f () then None else Some label)
    None checks

let show_int_pair (a, b) = Printf.sprintf "(%d, %d)" a b

let show_bigint_pair (a, b) =
  Printf.sprintf "(%s, %s)" (B.to_string a) (B.to_string b)

let show_bitmat m = Format.asprintf "@[<v>%a@]" Bitmat.pp m

(* ------------------------------------------------------------------ *)
(* Bigint vs. native ints and algebraic laws                           *)
(* ------------------------------------------------------------------ *)

(* Operands bounded so every native-int result below is exact
   (|a*b| < 2^60). *)
let bigint_vs_native =
  let word = Gen.int_range (-(1 lsl 30)) (1 lsl 30) in
  Property.make ~name:"bigint.vs_native_ring" ~gen:(Gen.pair word word)
    ~shrink:(Shrink.pair Shrink.int Shrink.int) ~show:show_int_pair
    (fun (a, b) ->
      let ba = B.of_int a and bb = B.of_int b in
      all_of
        [
          ("to_int(of_int)", fun () -> B.to_int ba = a);
          ("add", fun () -> B.to_int (B.add ba bb) = a + b);
          ("sub", fun () -> B.to_int (B.sub ba bb) = a - b);
          ("mul", fun () -> B.to_int (B.mul ba bb) = a * b);
          ("mul_int", fun () -> B.to_int (B.mul_int ba b) = a * b);
          ("neg", fun () -> B.to_int (B.neg ba) = -a);
          ("compare", fun () -> B.compare ba bb = compare a b);
          ("div", fun () -> b = 0 || B.to_int (B.div ba bb) = a / b);
          ("rem", fun () -> b = 0 || B.to_int (B.rem ba bb) = a mod b);
        ])

let gen_bigint_sized lo hi = Gen.bigint ~bits:(Gen.int_range lo hi)

let bigint_divmod =
  let gen g =
    let a = gen_bigint_sized 0 220 g in
    let b = gen_bigint_sized 1 120 g in
    (a, (if B.is_zero b then B.one else b))
  in
  Property.make ~name:"bigint.divmod_laws" ~gen
    ~shrink:(Shrink.pair Shrink.bigint Shrink.bigint) ~show:show_bigint_pair
    (fun (a, b) ->
      if B.is_zero b then None (* a shrunk divisor may reach zero *)
      else begin
        let q, r = B.divmod a b in
        let eq, er = B.ediv_rem a b in
        all_of
          [
            ("reconstruct", fun () -> B.equal (B.add (B.mul q b) r) a);
            ("rem_range", fun () -> B.compare (B.abs r) (B.abs b) < 0);
            ("rem_sign", fun () -> B.is_zero r || B.sign r = B.sign a);
            ( "ediv_reconstruct",
              fun () -> B.equal (B.add (B.mul eq b) er) a );
            ( "erem_range",
              fun () -> B.sign er >= 0 && B.compare er (B.abs b) < 0 );
            ("div_agrees", fun () -> B.equal (B.div a b) q);
            ("rem_agrees", fun () -> B.equal (B.rem a b) r);
          ]
      end)

let bigint_string_roundtrip =
  Property.make ~name:"bigint.string_roundtrip" ~gen:(gen_bigint_sized 0 300)
    ~shrink:Shrink.bigint ~show:B.to_string (fun x ->
      all_of
        [
          ( "of_string(to_string)",
            fun () -> B.equal (B.of_string (B.to_string x)) x );
          ( "sign_of_rendering",
            fun () ->
              let s = B.to_string x in
              (B.sign x < 0) = (String.length s > 0 && s.[0] = '-') );
        ])

let bigint_karatsuba =
  let big = 31 * B.karatsuba_threshold in
  let gen = Gen.pair (gen_bigint_sized big (3 * big)) (gen_bigint_sized big (3 * big)) in
  Property.make ~name:"bigint.karatsuba_vs_schoolbook" ~gen
    ~shrink:(Shrink.pair Shrink.bigint Shrink.bigint) ~show:show_bigint_pair
    (fun (a, b) ->
      all_of
        [ ("mul", fun () -> B.equal (B.mul a b) (B.mul_schoolbook a b)) ])

(* ------------------------------------------------------------------ *)
(* Modarith.Word vs. bignum modular arithmetic                         *)
(* ------------------------------------------------------------------ *)

let gen_modulus = Gen.int_range 2 ((1 lsl 31) - 1)

let modarith_vs_bigint =
  let gen = Gen.triple gen_modulus Gen.any_int Gen.any_int in
  Property.make ~name:"modarith.word_vs_bigint" ~gen
    ~shrink:(Shrink.triple Shrink.int Shrink.int Shrink.int)
    ~show:(fun (m, a, b) -> Printf.sprintf "(m=%d, %d, %d)" m a b)
    (fun (m, a, b) ->
      if m < 2 then None (* shrinking may leave the modulus range *)
      else begin
        let mm = Mod.Word.modulus m in
        let bm = B.of_int m in
        let ra = Mod.Word.reduce mm a and rb = Mod.Word.reduce mm b in
        let via_big op = B.to_int (B.erem (op (B.of_int ra) (B.of_int rb)) bm) in
        let e = abs (b mod 8) in
        all_of
          [
            ("reduce", fun () -> ra = B.to_int (B.erem (B.of_int a) bm));
            ("reduce_big", fun () -> Mod.Word.reduce_big mm (B.of_int a) = ra);
            ("add", fun () -> Mod.Word.add mm ra rb = via_big B.add);
            ("sub", fun () -> Mod.Word.sub mm ra rb = via_big B.sub);
            ("mul", fun () -> Mod.Word.mul mm ra rb = via_big B.mul);
            ("neg", fun () -> Mod.Word.add mm ra (Mod.Word.neg mm ra) = 0);
            ( "pow",
              fun () ->
                Mod.Word.pow mm ra e
                = B.to_int (B.erem (B.pow (B.of_int ra) e) bm) );
          ]
      end)

let modarith_inv_contract =
  let gen = Gen.pair gen_modulus Gen.any_int in
  Property.make ~name:"modarith.inv_contract" ~gen
    ~shrink:(Shrink.pair Shrink.int Shrink.int) ~show:show_int_pair
    (fun (m, x) ->
      if m < 2 then None
      else begin
        let mm = Mod.Word.modulus m in
        let rx = Mod.Word.reduce mm x in
        let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
        if gcd rx m = 1 then
          all_of
            [
              ( "x*inv(x)=1",
                fun () -> Mod.Word.mul mm rx (Mod.Word.inv mm rx) = 1 );
            ]
        else begin
          (* gcd 0 m = m >= 2, so x = 0 lands here too. *)
          match Mod.Word.inv mm rx with
          | _ -> Some "non-invertible: expected Division_by_zero"
          | exception Division_by_zero -> None
        end
      end)

(* ------------------------------------------------------------------ *)
(* Bitvec / Bitmat SWAR kernels vs. naive loops                        *)
(* ------------------------------------------------------------------ *)

let bitvec_vs_model =
  let gen g =
    let len = Prng.int g 201 in
    let v1 = Bitvec.random g len in
    let v2 = Bitvec.random g len in
    (v1, v2)
  in
  Property.make ~name:"bitvec.vs_bool_model" ~gen
    ~show:(fun (v1, v2) ->
      Printf.sprintf "(%s, %s)" (Bitvec.to_string v1) (Bitvec.to_string v2))
    (fun (v1, v2) ->
      let len = Bitvec.length v1 in
      let b1 = Oracles.bitvec_bools v1 and b2 = Oracles.bitvec_bools v2 in
      let via_model op =
        let d = Bitvec.copy v1 in
        op d v2;
        Oracles.bitvec_bools d
      in
      all_of
        [
          ( "popcount",
            fun () ->
              Bitvec.popcount v1
              = Array.fold_left (fun a b -> if b then a + 1 else a) 0 b1 );
          ( "xor",
            fun () ->
              via_model Bitvec.xor_into
              = Array.init len (fun i -> b1.(i) <> b2.(i)) );
          ( "and",
            fun () ->
              via_model Bitvec.and_into
              = Array.init len (fun i -> b1.(i) && b2.(i)) );
          ( "or",
            fun () ->
              via_model Bitvec.or_into
              = Array.init len (fun i -> b1.(i) || b2.(i)) );
          ( "string_roundtrip",
            fun () -> Bitvec.equal (Bitvec.of_string (Bitvec.to_string v1)) v1
          );
          ( "sub_append",
            fun () ->
              let h = len / 2 in
              Bitvec.equal
                (Bitvec.append (Bitvec.sub v1 0 h) (Bitvec.sub v1 h (len - h)))
                v1 );
          ( "compare_antisym",
            fun () -> Bitvec.compare v1 v2 = -Bitvec.compare v2 v1 );
          ( "hash_stable",
            fun () -> Bitvec.hash v1 = Bitvec.hash (Bitvec.copy v1) );
          ( "is_zero",
            fun () -> Bitvec.is_zero v1 = Array.for_all not b1 );
          ( "fold_set_bits",
            fun () ->
              List.rev (Bitvec.fold_set_bits (fun i acc -> i :: acc) v1 [])
              = List.filter (fun i -> b1.(i)) (List.init len Fun.id) );
        ])

let bitvec_popcount_int =
  Property.make ~name:"bitvec.popcount_int_vs_naive" ~gen:Gen.nonneg_int
    ~shrink:Shrink.int ~show:string_of_int (fun x ->
      all_of
        [
          ( "popcount_int",
            fun () -> Bitvec.popcount_int x = Oracles.popcount_int_naive x );
        ])

let gen_small_bitmat lo hi g =
  let r = Prng.int_incl g lo hi in
  let c = Prng.int_incl g lo hi in
  Bitmat.random g r c

let bitmat_kernels =
  let gen g =
    let m = gen_small_bitmat 1 10 g in
    let rmask = Prng.int g (1 lsl Bitmat.rows m) in
    let cmask = Prng.int g (1 lsl Bitmat.cols m) in
    (m, rmask, cmask)
  in
  Property.make ~name:"bitmat.kernels_vs_naive" ~gen
    ~shrink:(Shrink.triple Shrink.bitmat Shrink.int Shrink.int)
    ~show:(fun (m, rmask, cmask) ->
      Format.asprintf "rmask=%d cmask=%d@\n%a" rmask cmask Bitmat.pp m)
    (fun (m, rmask, cmask) ->
      let r = Bitmat.rows m and c = Bitmat.cols m in
      let rmask = rmask land ((1 lsl r) - 1) in
      let cmask = cmask land ((1 lsl c) - 1) in
      let pr = Bitmat.packed_rows m and pc = Bitmat.packed_cols m in
      all_of
        [
          ( "mono_rows",
            fun () ->
              Bitmat.mono_masked pr ~rmask ~cmask
              = Oracles.mono_masked_naive m ~rmask ~cmask );
          ( "mono_cols",
            fun () ->
              Bitmat.mono_masked pc ~rmask:cmask ~cmask:rmask
              = Oracles.mono_masked_naive m ~rmask ~cmask );
          ( "packed_rows",
            fun () ->
              Array.for_all Fun.id
                (Array.init r (fun i ->
                     Array.for_all Fun.id
                       (Array.init c (fun j ->
                            (pr.(i) lsr j) land 1
                            = (if Bitmat.get m i j then 1 else 0))))) );
          ( "packed_cols",
            fun () ->
              Array.for_all Fun.id
                (Array.init c (fun j ->
                     Array.for_all Fun.id
                       (Array.init r (fun i ->
                            (pc.(j) lsr i) land 1
                            = (if Bitmat.get m i j then 1 else 0))))) );
          ( "count_ones",
            fun () -> Bitmat.count_ones m = Oracles.count_ones_naive m );
          ( "rank_transpose",
            fun () -> Bitmat.rank m = Bitmat.rank (Bitmat.transpose m) );
        ])

(* The batched rank kernel must be indistinguishable from mapping the
   scalar one — including on empty boards, boards with zero columns,
   and boards too wide to pack (the per-board fallback path). *)
let show_int_array a =
  "[" ^ String.concat "; " (List.map string_of_int (Array.to_list a)) ^ "]"

let bitmat_rank_batch =
  let gen g =
    let count = Prng.int_incl g 0 8 in
    Array.init count (fun _ ->
        if Prng.int g 8 = 0 then
          Bitmat.random g (Prng.int_incl g 1 3)
            (Bitvec.bits_per_word + Prng.int_incl g 1 4)
        else gen_small_bitmat 0 10 g)
  in
  Property.make ~name:"bitmat.rank_batch_vs_scalar" ~gen
    ~show:(fun ms ->
      String.concat "\n---\n" (Array.to_list (Array.map show_bitmat ms)))
    (fun ms ->
      let batch = Bitmat.rank_batch ms in
      let scalar = Array.map Bitmat.rank ms in
      if batch = scalar then None
      else
        Some
          (Printf.sprintf "batch %s <> scalar %s" (show_int_array batch)
             (show_int_array scalar)))

(* ------------------------------------------------------------------ *)
(* Txtable vs. association model                                      *)
(* ------------------------------------------------------------------ *)

let txtable_vs_model =
  (* Keys confined to a small range so linear-probing collisions are
     the common case, not the rare one. *)
  let gen =
    Gen.array (Gen.int_range 0 300)
      (Gen.triple Gen.bool (Gen.int_range 0 63) (Gen.int_range 0 1000))
  in
  Property.make ~name:"txtable.vs_assoc_model" ~gen
    ~shrink:(Shrink.array ())
    ~show:(fun ops ->
      String.concat ";"
        (Array.to_list
           (Array.map
              (fun (s, k, v) ->
                Printf.sprintf "%s %d %d" (if s then "set" else "find") k v)
              ops)))
    (fun ops ->
      let t = Txtable.create ~initial_bits:2 () in
      let model = Oracles.Table_model.create () in
      let sets = ref 0 in
      let bad = ref None in
      Array.iteri
        (fun idx (is_set, k, v) ->
          if !bad = None then
            if is_set then begin
              Txtable.set t k v;
              Oracles.Table_model.set model k v;
              incr sets
            end
            else begin
              let got = Txtable.find t k in
              let want = Oracles.Table_model.find model k in
              if got <> want then
                bad :=
                  Some
                    (Printf.sprintf "find %d at op %d: table %d, model %d" k
                       idx got want)
            end)
        ops;
      match !bad with
      | Some _ as s -> s
      | None ->
          all_of
            [
              ( "length",
                fun () -> Txtable.length t = Oracles.Table_model.length model
              );
              ("stores", fun () -> (Txtable.stats t).Txtable.stores = !sets);
            ])

let txtable_eviction_fail_soft =
  let gen =
    Gen.array (Gen.int_range 0 400)
      (Gen.pair (Gen.int_range 0 4095) (Gen.int_range 0 1000))
  in
  Property.make ~name:"txtable.eviction_fail_soft" ~gen
    ~shrink:(Shrink.array ())
    ~show:(fun ops -> Printf.sprintf "<%d inserts>" (Array.length ops))
    (fun ops ->
      let t = Txtable.create ~budget_entries:32 ~initial_bits:3 () in
      let model = Oracles.Table_model.create () in
      Array.iter
        (fun (k, v) ->
          Txtable.set t k v;
          Oracles.Table_model.set model k v)
        ops;
      (* Fail-soft: an evicted key reads back -1, a present key must
         carry the model's (last-written) value — never a stale or
         foreign one. *)
      let bad =
        Oracles.Table_model.fold
          (fun k want acc ->
            match acc with
            | Some _ -> acc
            | None ->
                let got = Txtable.find t k in
                if got = -1 || got = want then None
                else
                  Some
                    (Printf.sprintf "key %d: table %d, model %d" k got want))
          model None
      in
      match bad with
      | Some _ as s -> s
      | None ->
          all_of
            [
              ("capacity_at_budget", fun () -> Txtable.capacity t <= 32);
              ( "length_le_capacity",
                fun () -> Txtable.length t <= Txtable.capacity t );
            ])

(* ------------------------------------------------------------------ *)
(* Exact CC: optimized search vs. reference enumerator and bounds      *)
(* ------------------------------------------------------------------ *)

(* Half the draws are uniform boards up to 5x5.  The other half are
   GF(2) products [A (r x k) * B (k x c)] with sides 6..8 and rank at
   most 4: low rank keeps the root bound short of the trivial upper
   bound often enough that the search expands nodes, where the interior
   rank cut closes most children.  The raw reference recursion is
   exponential beyond 5x5, so larger boards are checked against it with
   only its table turned on — still exhaustive, no pruning, no
   canonicalization. *)
let gen_reference_board g =
  if Prng.bool g then gen_small_bitmat 1 5 g
  else begin
    let r = Prng.int_incl g 6 8 in
    let c = Prng.int_incl g 6 8 in
    let k = Prng.int_incl g 2 4 in
    let a = Bitmat.random g r k in
    Bitmat.mul a (Bitmat.random g k c)
  end

let exact_cc_vs_reference =
  Property.make ~name:"exact_cc.optimized_vs_reference"
    ~gen:gen_reference_board ~shrink:Shrink.bitmat ~show:show_bitmat
    (fun m ->
      let v_opt, _ = Exact_cc.search m in
      let config =
        if max (Bitmat.rows m) (Bitmat.cols m) <= 5 then
          Exact_cc.reference_config
        else { Exact_cc.reference_config with table = true }
      in
      let v_ref, _ = Exact_cc.search ~config m in
      all_of [ ("cc", fun () -> v_opt = v_ref) ])

let exact_cc_fail_soft =
  (* [min (exact, bound)] for every bound up to one past the value:
     the contract the interior rank cut must keep.  A cut that
     over-claims by one, or reports its lower bound instead of the
     search bound, breaks it at the root call already. *)
  let gen g =
    let m = gen_reference_board g in
    (m, Prng.int_incl g 0 5)
  in
  Property.make ~name:"exact_cc.fail_soft" ~gen
    ~shrink:(Shrink.pair Shrink.bitmat Shrink.int)
    ~show:(fun (m, bound) ->
      Printf.sprintf "bound=%d\n%s" bound (show_bitmat m))
    (fun (m, bound) ->
      let exact = Exact_cc.complexity m in
      all_of
        [ ( "min(exact,bound)",
            fun () -> Exact_cc.bounded m ~bound = min exact bound ) ])

let exact_cc_sandwiched =
  Property.make ~name:"exact_cc.bounds_sandwich" ~gen:(gen_small_bitmat 1 6)
    ~shrink:Shrink.bitmat ~show:show_bitmat (fun m ->
      all_of
        [ ("lower<=cc<=upper", fun () -> Exact_cc.optimal_is_sandwiched m) ])

let exact_cc_lb_portfolio_sound =
  (* Every member of the root lower-bound portfolio — GF(2)
     rank/fooling, rational log-rank, discrepancy — must individually
     stay at or below the exact CC: one unsound member would make the
     engine prune away optimal protocols and return wrong values while
     every ablation still agreed with itself.  Checked against the
     reference-grade exact value on boards small enough to afford it. *)
  Property.make ~name:"exact_cc.lb_portfolio_sound" ~gen:(gen_small_bitmat 1 5)
    ~shrink:Shrink.bitmat ~show:show_bitmat (fun m ->
      let cc, _ = Exact_cc.search m in
      all_of
        (List.map
           (fun (name, bound) -> (name ^ "<=cc", fun () -> bound <= cc))
           (Exact_cc.lower_bound_portfolio m)))

(* ------------------------------------------------------------------ *)
(* Lower-bound word kernels vs. the list-based ones                    *)
(* ------------------------------------------------------------------ *)

(* Boards 0x0..12x12 at a random density, all-zero and all-one ones,
   and boards past one row word (3x70, 70x3), each with a seed for the
   randomized greedy (it restarts 1 + seed mod 20 times, so a seed
   shrunk to 0 still restarts). *)
let gen_lower_bounds_case g =
  let r = Prng.int_incl g 0 12 and c = Prng.int_incl g 0 12 in
  let m =
    match Prng.int g 8 with
    | 0 -> Bitmat.create r c
    | 1 -> Bitmat.complement (Bitmat.create r c)
    | 2 ->
        let wide = Bitvec.bits_per_word + 8 in
        if Prng.bool g then Bitmat.random g 3 wide else Bitmat.random g wide 3
    | _ ->
        let p = Prng.int_incl g 5 95 in
        Bitmat.init r c (fun _ _ -> Prng.int g 100 < p)
  in
  (m, Prng.int g 1_000_000)

let lower_bounds_words_vs_lists =
  Property.make ~name:"lower_bounds.words_vs_lists" ~gen:gen_lower_bounds_case
    ~shrink:(Shrink.pair Shrink.bitmat Shrink.int)
    ~show:(fun (m, seed) -> Printf.sprintf "seed=%d\n%s" seed (show_bitmat m))
    (fun (m, seed) ->
      let tm = Tm.of_bitmat m in
      let restarts = 1 + (abs seed mod 20) in
      (* Past 20 enumerated rows both sides must refuse. *)
      let rect f ~min_rows =
        match f ?min_rows:(Some min_rows) m with
        | r -> Some r
        | exception Invalid_argument _ -> None
      in
      let rects_agree f oracle =
        List.for_all
          (fun min_rows -> rect f ~min_rows = rect oracle ~min_rows)
          [ 1; 2; 3 ]
      in
      all_of
        [ ("greedy", fun () -> Fooling.greedy tm = Oracles.fooling_greedy tm);
          ( "greedy_randomized",
            fun () ->
              Fooling.greedy_randomized (Prng.create seed) ~restarts tm
              = Oracles.fooling_greedy_randomized (Prng.create seed) ~restarts
                  tm );
          ( "max_one_rectangle_exact",
            fun () ->
              rects_agree Rectangle.max_one_rectangle_exact
                Oracles.max_one_rectangle_exact );
          ( "max_zero_rectangle_exact",
            fun () ->
              rects_agree Rectangle.max_zero_rectangle_exact
                Oracles.max_zero_rectangle_exact );
          ( "cover_lower_bound",
            fun () ->
              List.for_all
                (fun exact ->
                  Rectangle.cover_lower_bound m ~exact
                  = Oracles.cover_lower_bound m ~exact)
                [ true; false ] );
          ( "analyze",
            fun () ->
              List.for_all
                (fun exact_rect ->
                  Rank_bound.analyze tm ~exact_rect
                  = Oracles.lower_bounds_report tm ~exact_rect)
                [ true; false ] ) ])

(* ------------------------------------------------------------------ *)
(* Zmatrix determinants vs. cofactor expansion                         *)
(* ------------------------------------------------------------------ *)

let zmatrix_det_agreement =
  let gen g =
    let n = Prng.int_incl g 1 4 in
    Gen.zmatrix ~rows:(Gen.return n) ~cols:(Gen.return n)
      ~bits:(Gen.int_range 0 64) g
  in
  Property.make ~name:"zmatrix.det_vs_cofactor" ~gen
    ~show:(fun m ->
      String.concat "\n"
        (List.init (Zm.rows m) (fun i ->
             String.concat " "
               (List.init (Zm.cols m) (fun j -> B.to_string (Zm.get m i j))))))
    (fun m ->
      let d = Zm.det_bareiss m in
      all_of
        [
          ("crt", fun () -> B.equal (Zm.det m) d);
          ("cofactor", fun () -> B.equal (Oracles.det_cofactor m) d);
          ( "rank_full_iff_nonsingular",
            fun () -> (Zm.rank m = Zm.rows m) = not (B.is_zero d) );
          ( "hadamard",
            fun () -> B.compare (B.abs d) (Zm.hadamard_bound m) <= 0 );
          ( "transpose",
            fun () -> B.equal (Zm.det_bareiss (Zm.transpose m)) d );
          ( "det_mod_p",
            fun () ->
              let p = (1 lsl 30) - 35 in
              (* 2^30 - 35 is prime *)
              let mm = Mod.Word.modulus p in
              Zm.det_mod_p m p = Mod.Word.reduce_big mm d );
        ])

(* Batched singularity must agree with the scalar verdict on a mix
   that forces both of its paths: random matrices (the first ladder
   prime certifies nonsingular) and rank-deficient constructions (det
   vanishes mod every prime until the Hadamard bound is covered). *)
let show_zmatrix m =
  String.concat "\n"
    (List.init (Zm.rows m) (fun i ->
         String.concat " "
           (List.init (Zm.cols m) (fun j -> B.to_string (Zm.get m i j)))))

let zmatrix_singular_batch =
  let gen g =
    let count = Prng.int_incl g 0 6 in
    Array.init count (fun _ ->
        let n = Prng.int_incl g 1 5 in
        match Prng.int g 3 with
        | 0 -> Zm.random_of_rank g ~rows:n ~cols:n ~rank:(Prng.int g n)
        | 1 -> Zm.random_of_rank g ~rows:n ~cols:n ~rank:n
        | _ -> Zm.random g ~rows:n ~cols:n ~bits:(Prng.int_incl g 1 40))
  in
  Property.make ~name:"zmatrix.singular_batch_vs_scalar" ~gen
    ~show:(fun ms ->
      String.concat "\n---\n" (Array.to_list (Array.map show_zmatrix ms)))
    (fun ms ->
      let batch = Zm.singular_batch ms in
      let scalar = Array.map Zm.is_singular ms in
      if batch = scalar then None
      else
        Some
          (Printf.sprintf "batch verdicts [%s] <> scalar [%s]"
             (String.concat ";"
                (List.map string_of_bool (Array.to_list batch)))
             (String.concat ";"
                (List.map string_of_bool (Array.to_list scalar)))))

(* ------------------------------------------------------------------ *)
(* Word-prime exact answers vs. elimination over ℚ and Bareiss         *)
(* ------------------------------------------------------------------ *)

type exact_case = Integer of Zm.t | Board of Bitmat.t

(* Integer matrices from 0 x 0 to 9 x 9: random or a rank-deficient
   product, entries past 2^62 of either sign, then (independently) some
   rows and columns zeroed and the whole matrix scaled by the first one
   or two ladder primes — the scaling makes every rank and determinant
   vanish mod those primes, so a loop that trusts its first primes
   answers wrong.  Boards are GF(2) products up to 20 x 20. *)
let gen_exact_case g =
  if Prng.int g 4 = 0 then begin
    let r = Prng.int_incl g 0 20 and c = Prng.int_incl g 0 20 in
    let k = Prng.int_incl g 1 20 in
    Board (Bitmat.mul (Bitmat.random g r k) (Bitmat.random g k c))
  end
  else begin
    let r = Prng.int_incl g 0 9 and c = Prng.int_incl g 0 9 in
    let m =
      if r > 0 && c > 0 && Prng.bool g then
        let k = Prng.int g (Stdlib.min r c) in
        let bits = Gen.int_range 0 12 in
        Zm.mul
          (Gen.zmatrix ~rows:(Gen.return r) ~cols:(Gen.return k) ~bits g)
          (Gen.zmatrix ~rows:(Gen.return k) ~cols:(Gen.return c) ~bits g)
      else
        Gen.zmatrix ~rows:(Gen.return r) ~cols:(Gen.return c)
          ~bits:(Gen.int_range 0 70) g
    in
    let m =
      if Prng.int g 3 > 0 then m
      else
        let zr = Array.init r (fun _ -> Prng.int g 4 = 0) in
        let zc = Array.init c (fun _ -> Prng.int g 4 = 0) in
        Zm.mapi (fun i j v -> if zr.(i) || zc.(j) then B.zero else v) m
    in
    let p0 = B.of_int (Commx_bigint.Primes.ladder 0) in
    let p1 = B.of_int (Commx_bigint.Primes.ladder 1) in
    Integer
      (match Prng.int g 3 with
      | 0 -> Zm.scale p0 m
      | 1 -> Zm.scale (B.mul p0 p1) m
      | _ -> m)
  end

let zmatrix_exact_vs_rational =
  Property.make ~name:"zmatrix.exact_vs_rational" ~gen:gen_exact_case
    ~shrink:(function
      | Integer m -> Seq.map (fun m -> Integer m) (Shrink.zmatrix m)
      | Board b -> Seq.map (fun b -> Board b) (Shrink.bitmat b))
    ~show:(function
      | Integer m ->
          Printf.sprintf "%dx%d integer\n%s" (Zm.rows m) (Zm.cols m)
            (show_zmatrix m)
      | Board b -> show_bitmat b)
    (function
      | Board b ->
          all_of
            [
              ( "rational_rank",
                fun () ->
                  Commx_comm.Rank_bound.rational_rank b
                  = Oracles.board_rank_q b );
            ]
      | Integer m ->
          let q_rank = Commx_linalg.Qmatrix.rank (Zm.to_qmatrix m) in
          let square = Zm.is_square m in
          let d = if square then Zm.det_bareiss m else B.zero in
          all_of
            [
              ("rank", fun () -> Zm.rank m = q_rank);
              ("det", fun () -> (not square) || B.equal (Zm.det m) d);
              ( "det_rank",
                fun () ->
                  (not square)
                  ||
                  let d', r' = Zm.det_rank m in
                  B.equal d' d && r' = q_rank );
              ( "is_singular",
                fun () -> (not square) || Zm.is_singular m = B.is_zero d );
            ])

(* ------------------------------------------------------------------ *)
(* Lemma 3.2 criterion vs. direct determinant on Fig. 1/3 instances    *)
(* ------------------------------------------------------------------ *)

let lemma32_vs_determinant =
  let gen g =
    let p = Gen.small_params g in
    (p, Gen.hard_free p g)
  in
  Property.make ~name:"lemma32.criterion_vs_determinant" ~gen
    ~show:(fun (p, _) -> Format.asprintf "%a" Params.pp p)
    (fun (p, f) ->
      all_of
        [
          ("criterion_agrees_random", fun () -> L32.agrees p f);
          ( "completion_singular",
            fun () ->
              (* Lemma 3.5(a): completing (C, E) must yield a witness
                 that checks, a singular M by direct CRT determinant,
                 and a true Lemma 3.2 criterion. *)
              let w = L35.complete p ~c:f.H.c ~e:f.H.e in
              L35.check_witness p w
              && B.is_zero (Zm.det (H.build_m p w.L35.free))
              && L32.criterion p w.L35.free );
        ])

(* ------------------------------------------------------------------ *)
(* Json round-trip, Stats percentiles, Combi.power                     *)
(* ------------------------------------------------------------------ *)

let rec json_eq a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y ->
      (Float.is_nan x && Float.is_nan y) || x = y
  | Json.String x, Json.String y -> x = y
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_eq v1 v2)
           xs ys
  | _ -> false

(* Strings that take each path of the emitter and the parser: raw
   bytes in [0, 127] (control characters, quotes and backslashes, so
   escapes), printable escape-free text (one blit each way), and UTF-8
   beyond ASCII (passed through raw). *)
let gen_json_string g =
  let buf = Buffer.create 16 in
  let n = Prng.int g 13 in
  (match Prng.int g 3 with
  | 0 -> Buffer.add_string buf (Gen.byte_string (Gen.return n) g)
  | 1 ->
      for _ = 1 to n do
        match Char.chr (Prng.int_incl g 0x20 0x7e) with
        | '"' | '\\' -> Buffer.add_char buf '_'
        | c -> Buffer.add_char buf c
      done
  | _ ->
      for _ = 1 to n do
        Buffer.add_string buf
          (Prng.choose g
             [| "a"; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80"; "\"";
                "\\"; "\n"; "\x01"; "\x7f" |])
      done);
  Buffer.contents buf

let gen_json =
  let leaf g =
    match Prng.int g 6 with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Prng.bool g)
    | 2 -> Json.Int (Gen.any_int g)
    | 3 | 4 ->
        let f =
          match Prng.int g 8 with
          | 0 -> Float.nan
          | 1 -> Float.infinity
          | 2 -> Float.neg_infinity
          | 3 -> 0.0
          | 4 -> -0.0
          | _ -> ldexp ((Prng.float g *. 2.0) -. 1.0) (Prng.int_incl g (-30) 30)
        in
        Json.Float f
    | _ -> Json.String (gen_json_string g)
  in
  let rec value depth g =
    if depth = 0 then leaf g
    else begin
      match Prng.int g 4 with
      | 0 | 1 -> leaf g
      | 2 ->
          let n = Prng.int g 4 in
          Json.List (List.map (fun _ -> value (depth - 1) g) (List.init n Fun.id))
      | _ ->
          let n = Prng.int g 4 in
          Json.Obj
            (List.map
               (fun _ ->
                 let k = gen_json_string g in
                 (k, value (depth - 1) g))
               (List.init n Fun.id))
    end
  in
  value 3

(* Compact text with every ASCII byte of every string and key written
   as a [\uXXXX] escape: the parser's escape path on every string. *)
let rec to_u_escaped buf v =
  let quoted s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if Char.code c < 0x80 then
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let items open_ close f xs =
    Buffer.add_char buf open_;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        f x)
      xs;
    Buffer.add_char buf close
  in
  match v with
  | Json.String s -> quoted s
  | Json.List xs -> items '[' ']' (to_u_escaped buf) xs
  | Json.Obj kvs ->
      items '{' '}'
        (fun (k, x) ->
          quoted k;
          Buffer.add_char buf ':';
          to_u_escaped buf x)
        kvs
  | v -> Buffer.add_string buf (Json.to_string v)

let json_roundtrip =
  Property.make ~name:"json.roundtrip" ~gen:gen_json ~show:Json.to_string
    (fun v ->
      all_of
        [
          ( "compact",
            fun () -> json_eq (Json.of_string (Json.to_string v)) v );
          ( "pretty",
            fun () -> json_eq (Json.of_string (Json.to_string_pretty v)) v );
          ( "u_escaped",
            fun () ->
              let buf = Buffer.create 64 in
              to_u_escaped buf v;
              json_eq (Json.of_string (Buffer.contents buf)) v );
        ])

(* ------------------------------------------------------------------ *)
(* Wire: the packed-word request decoder vs. the tree-based reference  *)
(* ------------------------------------------------------------------ *)

(* Whitespace between tokens, usually none. *)
let gen_ws g = match Prng.int g 8 with 0 -> " " | 1 -> "\n\t " | _ -> ""

(* A board's side: any of 1..64, the 62/63/64-column word boundary
   often, and now and then an empty or over-the-cap side. *)
let gen_side g =
  match Prng.int g 12 with
  | 0 | 1 -> Prng.choose g [| 62; 63; 64 |]
  | 2 -> Prng.choose g [| 0; 65 |]
  | 3 | 4 | 5 -> Prng.int_incl g 1 4
  | _ -> Prng.int_incl g 1 64

(* One board as JSON text.  Most boards are well formed; a defective
   one carries one or more of: a non-string row, a ragged row, a byte
   other than '0'/'1', and (harmless) [\u0030]/[\u0031] escapes or a
   multi-byte escape that lengthens a row. *)
let gen_board_text g =
  let rows = gen_side g in
  let cols = if rows > 0 && Prng.int g 6 = 0 then rows else gen_side g in
  let defect p = Prng.int g 100 < p in
  let non_string = defect 8 and ragged = defect 8 and stray = defect 8 in
  let escapes = defect 25 and multibyte = defect 4 in
  let pick () = if rows = 0 then -1 else Prng.int g rows in
  let ns_row = if non_string then pick () else -1 in
  let rg_row = if ragged then pick () else -1 in
  let st_row = if stray then pick () else -1 in
  let mb_row = if multibyte then pick () else -1 in
  let row i =
    if i = ns_row then
      Prng.choose g [| "1"; "null"; "[\"0\"]"; "{\"r\":\"01\"}"; "true" |]
    else begin
      let b = Buffer.create (cols + 2) in
      Buffer.add_char b '"';
      let len =
        if i = rg_row then if Prng.bool g then cols + 1 else max 0 (cols - 1)
        else cols
      in
      let stray_at = if i = st_row && len > 0 then Prng.int g len else -1 in
      for j = 0 to len - 1 do
        let c =
          if j = stray_at then Prng.choose g [| '2'; 'a'; ' '; '\t' |]
          else if Prng.bool g then '1'
          else '0'
        in
        if escapes && Prng.int g 6 = 0 then
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        else if c = '\t' then Buffer.add_string b "\\t"
        else Buffer.add_char b c
      done;
      if i = mb_row then Buffer.add_string b "\\u00e9";
      Buffer.add_char b '"';
      Buffer.contents b
    end
  in
  let b = Buffer.create 64 in
  Buffer.add_char b '[';
  for i = 0 to rows - 1 do
    if i > 0 then Buffer.add_string b (gen_ws g ^ "," ^ gen_ws g);
    Buffer.add_string b (row i)
  done;
  Buffer.add_string b (gen_ws g ^ "]");
  Buffer.contents b

let gen_not_a_list g = Prng.choose g [| "\"0110\""; "7"; "null"; "{}" |]

(* A [matrices] value: a few boards, or (rarely) a batch at or just
   past the 1024-board cap, with a bad board somewhere in it. *)
let gen_batch_text g =
  let count =
    match Prng.int g 30 with
    | 0 -> 1024
    | 1 -> 1025
    | _ -> Prng.int g 4
  in
  let bad_at = if Prng.int g 4 = 0 then Prng.int g (max count 1) else -1 in
  let b = Buffer.create 64 in
  Buffer.add_char b '[';
  for i = 0 to count - 1 do
    if i > 0 then Buffer.add_char b ',';
    Buffer.add_string b
      (if i = bad_at then
         if Prng.bool g then gen_not_a_list g else "[\"01\",\"1\"]"
       else if count > 4 then Prng.choose g [| "[\"0\"]"; "[\"1\"]"; "[\"01\",\"10\"]" |]
       else gen_board_text g)
  done;
  Buffer.add_char b ']';
  Buffer.contents b

(* A whole request line: op, id, the matrix member(s), optional
   use_cache / deadline_ms (sometimes invalid), sometimes a duplicate
   matrix key, an escaped key or an unknown nested member, in any
   order; and now and then not JSON, or not an object. *)
let gen_wire_line g =
  let op =
    Prng.choose g
      [| "exact_cc"; "exact_cc"; "lower_bounds"; "rank_batch"; "rank_batch";
         "singular"; "ping" |]
  in
  let matrix_value () =
    if Prng.int g 10 = 0 then gen_not_a_list g else gen_board_text g
  in
  let key k = if Prng.int g 10 = 0 && k = "matrix" then "m\\u0061trix" else k in
  let members =
    [ ("op", "\"" ^ op ^ "\""); ("id", string_of_int (Prng.int g 1000)) ]
    @ (if op = "rank_batch" then
         [ ("matrices",
            if Prng.int g 10 = 0 then gen_not_a_list g else gen_batch_text g) ]
       else if Prng.int g 20 = 0 then []
       else [ ("matrix", matrix_value ()) ])
    @ (if Prng.int g 8 = 0 then [ ("matrix", matrix_value ()) ] else [])
    @ (if Prng.int g 8 = 0 then
         [ ("use_cache", Prng.choose g [| "true"; "false"; "\"x\"" |]) ]
       else [])
    @ (if Prng.int g 8 = 0 then
         [ ("deadline_ms", Prng.choose g [| "100"; "-1"; "\"x\""; "1.5" |]) ]
       else [])
    @
    if Prng.int g 8 = 0 then [ ("extra", "{\"x\":[1,-2.5e3,{\"y\":null}],\"z\":\"\\n\"}") ]
    else []
  in
  let members = Array.of_list members in
  Prng.shuffle g members;
  let body =
    String.concat ","
      (Array.to_list
         (Array.map
            (fun (k, v) -> gen_ws g ^ "\"" ^ key k ^ "\"" ^ gen_ws g ^ ":" ^ gen_ws g ^ v)
            members))
  in
  let line = gen_ws g ^ "{" ^ body ^ gen_ws g ^ "}" ^ gen_ws g in
  match Prng.int g 25 with
  | 0 -> String.sub line 0 (Prng.int g (String.length line))
  | 1 -> line ^ Prng.choose g [| "x"; ","; "}" |]
  | 2 -> Prng.choose g [| "[1,2]"; "\"op\""; ""; "  "; "nul" |]
  | _ -> line

let same_request (a : Wire.request) (b : Wire.request) =
  match (a, b) with
  | Wire.Exact_cc x, Wire.Exact_cc y ->
      Bitmat.equal x.matrix y.matrix && x.use_cache = y.use_cache
  | Wire.Lower_bounds x, Wire.Lower_bounds y -> Bitmat.equal x.matrix y.matrix
  | Wire.Rank_batch x, Wire.Rank_batch y ->
      Array.length x.matrices = Array.length y.matrices
      && Array.for_all2 Bitmat.equal x.matrices y.matrices
  | Wire.Singular x, Wire.Singular y ->
      Zm.rows x.matrix = Zm.rows y.matrix
      && Zm.cols x.matrix = Zm.cols y.matrix
      && List.for_all
           (fun i ->
             List.for_all
               (fun j -> B.equal (Zm.get x.matrix i j) (Zm.get y.matrix i j))
               (List.init (Zm.cols x.matrix) Fun.id))
           (List.init (Zm.rows x.matrix) Fun.id)
  | _ -> compare a b = 0

let wire_bit_matrix_decode =
  Property.make ~name:"wire.bit_matrix_decode" ~gen:gen_wire_line ~show:Fun.id
    (fun line ->
      match (Wire.parse line, Oracles.wire_parse line) with
      | Ok a, Ok b ->
          if
            json_eq a.Wire.id b.Wire.id && a.op = b.op
            && a.deadline_ms = b.deadline_ms && same_request a.req b.req
          then None
          else Some "accepted, with a different value than the reference"
      | Error (ia, ma), Error (ib, mb) ->
          if json_eq ia ib && ma = mb then None
          else Some (Printf.sprintf "error %S, reference %S" ma mb)
      | Ok _, Error (_, mb) -> Some ("accepted; the reference rejects: " ^ mb)
      | Error (_, ma), Ok _ -> Some ("rejected (" ^ ma ^ "); the reference accepts"))

(* The content key of a canonical board changed format (packed hex rows
   for '0'/'1' text); it must still alias exactly the boards the old
   key aliased.  Pairs are mostly related boards — duplicated lines,
   complements, transposes — so aliases are common. *)
let exact_cc_canonical_key_classes =
  let gen g =
    let a = gen_small_bitmat 1 8 g in
    let r = Bitmat.rows a and c = Bitmat.cols a in
    let b =
      match Prng.int g 5 with
      | 0 -> Bitmat.random g r c
      | 1 ->
          let i = Prng.int g r in
          Bitmat.submatrix a
            (Array.init (r + 1) (fun k -> if k = r then i else k))
            (Array.init c Fun.id)
      | 2 ->
          let j = Prng.int g c in
          Bitmat.submatrix a (Array.init r Fun.id)
            (Array.init (c + 1) (fun k -> if k = 0 then j else k - 1))
      | 3 -> Bitmat.complement a
      | _ -> Bitmat.transpose a
    in
    (a, b)
  in
  Property.make ~name:"exact_cc.canonical_key_classes" ~gen
    ~shrink:(Shrink.pair Shrink.bitmat Shrink.bitmat)
    ~show:(fun (a, b) -> show_bitmat a ^ "\n--\n" ^ show_bitmat b)
    (fun (a, b) ->
      let now = Exact_cc.canonical_key a = Exact_cc.canonical_key b in
      let before = Oracles.canonical_key_text a = Oracles.canonical_key_text b in
      if now = before then None
      else if now then Some "new key aliases boards the old key kept apart"
      else Some "new key splits boards the old key aliased")

let stats_percentiles =
  let gen =
    Gen.map
      (Array.map float_of_int)
      (Gen.array (Gen.int_range 1 40) (Gen.int_range (-50) 50))
  in
  Property.make ~name:"stats.percentile_median" ~gen
    ~shrink:(Shrink.array ~elt:Shrink.nothing ())
    ~show:(fun xs ->
      String.concat " " (Array.to_list (Array.map string_of_float xs)))
    (fun xs ->
      let n = Array.length xs in
      if n = 0 then None (* shrinking may empty the sample *)
      else begin
        let s = Array.copy xs in
        Array.sort Float.compare s;
        let rec mono = function
          | a :: (b :: _ as tl) -> a <= b && mono tl
          | _ -> true
        in
        all_of
          [
            ("p0_is_min", fun () -> Stats.percentile xs 0.0 = s.(0));
            ("p100_is_max", fun () -> Stats.percentile xs 100.0 = s.(n - 1));
            ( "median_is_middle",
              fun () ->
                let expected =
                  if n mod 2 = 1 then s.(n / 2)
                  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
                in
                Stats.median xs = expected
                && Stats.percentile xs 50.0 = expected );
            ( "monotone_in_p",
              fun () ->
                mono
                  (List.map (Stats.percentile xs)
                     [ 0.; 10.; 25.; 50.; 75.; 90.; 100. ]) );
            ("variance_nonneg", fun () -> Stats.variance xs >= 0.0);
            ("singleton_variance", fun () -> n <> 1 || Stats.variance xs = 0.0);
          ]
      end)

let combi_power_vs_bigint =
  let base =
    Gen.oneof
      [|
        Gen.int_range (-50) 50;
        Gen.map
          (fun i -> [| 2; -2; 3; -3; -4; (1 lsl 31) - 1; -((1 lsl 31) - 1) |].(i))
          (Gen.int_range 0 6);
      |]
  in
  Property.make ~name:"combi.power_vs_bigint"
    ~gen:(Gen.pair base (Gen.int_range 0 70))
    ~shrink:(Shrink.pair Shrink.int Shrink.int) ~show:show_int_pair
    (fun (b, e) ->
      if e < 0 then None
      else begin
        let truth = B.pow (B.of_int b) e in
        match Combi.power b e with
        | v ->
            if B.fits_int truth && B.to_int truth = v then None
            else if B.fits_int truth then
              Some (Printf.sprintf "wrong value: %d" v)
            else Some (Printf.sprintf "missed overflow: returned %d" v)
        | exception Failure _ ->
            if B.fits_int truth then Some "spurious overflow" else None
      end)

let all () =
  [
    bigint_vs_native;
    bigint_divmod;
    bigint_string_roundtrip;
    bigint_karatsuba;
    modarith_vs_bigint;
    modarith_inv_contract;
    bitvec_vs_model;
    bitvec_popcount_int;
    bitmat_kernels;
    bitmat_rank_batch;
    txtable_vs_model;
    txtable_eviction_fail_soft;
    exact_cc_vs_reference;
    exact_cc_fail_soft;
    exact_cc_sandwiched;
    exact_cc_lb_portfolio_sound;
    lower_bounds_words_vs_lists;
    zmatrix_det_agreement;
    zmatrix_singular_batch;
    zmatrix_exact_vs_rational;
    lemma32_vs_determinant;
    json_roundtrip;
    wire_bit_matrix_decode;
    exact_cc_canonical_key_classes;
    stats_percentiles;
    combi_power_vs_bigint;
  ]
