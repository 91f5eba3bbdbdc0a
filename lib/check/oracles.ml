module Bitvec = Commx_util.Bitvec
module Bitmat = Commx_util.Bitmat
module B = Commx_bigint.Bigint
module Zm = Commx_linalg.Zmatrix
module Prng = Commx_util.Prng
module Tm = Commx_comm.Truth_matrix
module Rectangle = Commx_comm.Rectangle
module Rank_bound = Commx_comm.Rank_bound

let popcount_int_naive x =
  if x < 0 then invalid_arg "Oracles.popcount_int_naive: negative";
  let c = ref 0 in
  for i = 0 to 62 do
    if (x lsr i) land 1 = 1 then incr c
  done;
  !c

let bitvec_bools v = Array.init (Bitvec.length v) (Bitvec.get v)

let mono_masked_naive m ~rmask ~cmask =
  let seen0 = ref false and seen1 = ref false in
  for i = 0 to Bitmat.rows m - 1 do
    if (rmask lsr i) land 1 = 1 then
      for j = 0 to Bitmat.cols m - 1 do
        if (cmask lsr j) land 1 = 1 then
          if Bitmat.get m i j then seen1 := true else seen0 := true
      done
  done;
  if !seen0 && !seen1 then -1 else if !seen1 then 1 else 0

let count_ones_naive m =
  let c = ref 0 in
  for i = 0 to Bitmat.rows m - 1 do
    for j = 0 to Bitmat.cols m - 1 do
      if Bitmat.get m i j then incr c
    done
  done;
  !c

let rec det_cofactor m =
  let n = Zm.rows m in
  if n <> Zm.cols m then invalid_arg "Oracles.det_cofactor: not square";
  if n = 0 then B.one
  else if n = 1 then Zm.get m 0 0
  else begin
    let acc = ref B.zero in
    for j = 0 to n - 1 do
      let c = Zm.get m 0 j in
      if not (B.is_zero c) then begin
        let minor =
          Zm.init (n - 1) (n - 1) (fun i' j' ->
              Zm.get m (i' + 1) (if j' < j then j' else j' + 1))
        in
        let term = B.mul c (det_cofactor minor) in
        acc := (if j land 1 = 0 then B.add !acc term else B.sub !acc term)
      end
    done;
    !acc
  end

(* Exact elimination over ℚ: shares nothing with the word-prime ladder
   it checks. *)
let board_rank_q m =
  Commx_linalg.Qmatrix.rank
    (Commx_linalg.Qmatrix.of_int_matrix (Bitmat.rows m) (Bitmat.cols m)
       (fun i j -> Bool.to_int (Bitmat.get m i j)))

(* The list-based lower-bound kernels the word kernels of
   [Commx_comm.Fooling] and [Commx_comm.Rectangle] replaced: a cell is
   checked against every chosen pair through [Truth_matrix.get], and
   every row subset is a fresh list from [Combi.iter_subsets]. *)
let fooling_compatible tm chosen (i, j) =
  Tm.get tm i j
  && List.for_all
       (fun (i', j') -> (not (Tm.get tm i j')) || not (Tm.get tm i' j))
       chosen

let fooling_greedy tm =
  let chosen = ref [] in
  for i = 0 to Tm.rows tm - 1 do
    for j = 0 to Tm.cols tm - 1 do
      if fooling_compatible tm !chosen (i, j) then chosen := (i, j) :: !chosen
    done
  done;
  List.rev !chosen

let fooling_greedy_randomized g ?(restarts = 16) tm =
  let nr = Tm.rows tm and nc = Tm.cols tm in
  let all = Array.init (nr * nc) (fun x -> (x / nc, x mod nc)) in
  let best = ref (fooling_greedy tm) in
  for _ = 1 to restarts do
    Prng.shuffle g all;
    let chosen = ref [] in
    Array.iter
      (fun p -> if fooling_compatible tm !chosen p then chosen := p :: !chosen)
      all;
    if List.length !chosen > List.length !best then best := !chosen
  done;
  !best

let cell_transpose m =
  Bitmat.init (Bitmat.cols m) (Bitmat.rows m) (fun i j -> Bitmat.get m j i)

let cell_complement m =
  Bitmat.init (Bitmat.rows m) (Bitmat.cols m) (fun i j -> not (Bitmat.get m i j))

let max_one_rectangle_exact ?(min_rows = 1) m =
  let transposed = min_rows <= 1 && Bitmat.rows m > Bitmat.cols m in
  let work = if transposed then cell_transpose m else m in
  let nr = Bitmat.rows work in
  let best = ref { Rectangle.row_set = [||]; col_set = [||] } in
  let best_area = ref 0 in
  let row_bits = Array.init nr (fun i -> Bitmat.row work i) in
  Commx_util.Combi.iter_subsets nr (fun subset ->
      let rows_sel = Array.of_list subset in
      let k = Array.length rows_sel in
      if k >= min_rows && k > 0 then begin
        let inter = Bitvec.copy row_bits.(rows_sel.(0)) in
        Array.iter (fun i -> Bitvec.and_into inter row_bits.(i)) rows_sel;
        let ncols = Bitvec.popcount inter in
        if k * ncols > !best_area then begin
          best_area := k * ncols;
          let cols_sel =
            Array.of_list
              (List.rev (Bitvec.fold_set_bits (fun j acc -> j :: acc) inter []))
          in
          best := { Rectangle.row_set = rows_sel; col_set = cols_sel }
        end
      end);
  if transposed then
    { Rectangle.row_set = !best.Rectangle.col_set; col_set = !best.row_set }
  else !best

let max_zero_rectangle_exact ?min_rows m =
  max_one_rectangle_exact ?min_rows (cell_complement m)

let cover_lower_bound m ~exact =
  let ones = count_ones_naive m in
  let zeros = (Bitmat.rows m * Bitmat.cols m) - ones in
  let one_rect, zero_rect =
    if exact then (max_one_rectangle_exact m, max_zero_rectangle_exact m)
    else begin
      let g = Prng.create 42 in
      let zero = Rectangle.max_one_rectangle_greedy g (cell_complement m) in
      (Rectangle.max_one_rectangle_greedy g m, zero)
    end
  in
  let parts_for count rect =
    if count = 0 then 0.0
    else if Rectangle.area rect = 0 then infinity
    else float_of_int count /. float_of_int (Rectangle.area rect)
  in
  let total = parts_for ones one_rect +. parts_for zeros zero_rect in
  if total <= 0.0 then 0.0 else log total /. log 2.0

let lower_bounds_report tm ~exact_rect =
  let m = Tm.to_bitmat tm in
  let fooling_set = fooling_greedy_randomized (Prng.create 1234) tm in
  let rational = Rank_bound.rational_rank m in
  let nr = Bitmat.rows m and nc = Bitmat.cols m in
  {
    Rank_bound.n_rows = nr;
    n_cols = nc;
    ones = count_ones_naive m;
    gf2 = Rank_bound.gf2_rank m;
    rational;
    log_rank =
      (if rational <= 0 then 0.0 else log (float_of_int rational) /. log 2.0);
    fooling = List.length fooling_set;
    fooling_bits = Commx_comm.Fooling.lower_bound_bits fooling_set;
    cover_bits = cover_lower_bound m ~exact:exact_rect;
    trivial_upper = log (float_of_int (max 1 (min nr nc))) /. log 2.0;
  }

module Table_model = struct
  type t = (int, int) Hashtbl.t

  let create () = Hashtbl.create 16
  let set t k v = Hashtbl.replace t k v
  let find t k = Option.value (Hashtbl.find_opt t k) ~default:(-1)
  let length t = Hashtbl.length t
  let fold f t init = Hashtbl.fold f t init
end

let canonical_key_text m =
  let text m i = String.init (Bitmat.cols m) (fun j -> if Bitmat.get m i j then '1' else '0') in
  let distinct xs =
    List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)
  in
  let transpose nr nc lines =
    let a = Array.of_list lines in
    List.init nc (fun j -> String.init nr (fun i -> a.(i).[j]))
  in
  let rows = distinct (List.init (Bitmat.rows m) (text m)) in
  let nr = List.length rows in
  let cols = distinct (transpose nr (Bitmat.cols m) rows) in
  let nc = List.length cols in
  let rows = transpose nc nr cols in
  let ones =
    List.fold_left
      (fun acc r -> String.fold_left (fun a c -> if c = '1' then a + 1 else a) acc r)
      0 rows
  in
  let rows =
    if 2 * ones > nr * nc then
      List.map (String.map (fun c -> if c = '1' then '0' else '1')) rows
    else rows
  in
  Printf.sprintf "%dx%d:%s" nr nc (String.concat "." rows)

(* The request decoder {!Commx_serve.Wire.parse} replaced: the whole
   line parsed into a [Json.t] tree, then each field read off it.  Kept
   verbatim as the reference the packed-word decoder must match. *)
module Wire_tree = struct
  module W = Commx_serve.Wire
  module Json = Commx_util.Json
  module Bm = Commx_util.Bitmat

  exception Bad of string

  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

  let field obj key = Json.member key obj

  let int_field ?default obj key =
    match (field obj key, default) with
    | Some (Json.Int v), _ -> v
    | None, Some d -> d
    | None, None -> bad "missing integer field %S" key
    | Some _, _ -> bad "field %S must be an integer" key

  let float_field ?default obj key =
    match (field obj key, default) with
    | Some (Json.Float v), _ -> v
    | Some (Json.Int v), _ -> float_of_int v
    | None, Some d -> d
    | None, None -> bad "missing number field %S" key
    | Some _, _ -> bad "field %S must be a number" key

  let bool_field ~default obj key =
    match field obj key with
    | Some (Json.Bool v) -> v
    | None -> default
    | Some _ -> bad "field %S must be a boolean" key

  let string_field ?default obj key =
    match (field obj key, default) with
    | Some (Json.String s), _ -> s
    | None, Some d -> d
    | None, None -> bad "missing string field %S" key
    | Some _, _ -> bad "field %S must be a string" key

  (* ["0110", "1001", ...] -> Bitmat, strictly rectangular, 0/1 only. *)
  let bit_matrix_of_rows rows =
    let rows =
      List.map
        (function Json.String s -> s | _ -> bad "matrix rows must be strings")
        rows
    in
    match rows with
    | [] -> bad "matrix has no rows"
    | first :: _ ->
        let nr = List.length rows and nc = String.length first in
        if nc = 0 then bad "matrix has empty rows";
        if nr > W.max_matrix_side || nc > W.max_matrix_side then
          bad "matrix exceeds %dx%d wire limit" W.max_matrix_side W.max_matrix_side;
        if List.exists (fun r -> String.length r <> nc) rows then
          bad "matrix rows have unequal lengths";
        List.iter
          (String.iter (fun c ->
               if c <> '0' && c <> '1' then
                 bad "matrix rows must contain only '0' and '1'"))
          rows;
        let a = Array.of_list rows in
        Bm.init nr nc (fun i j -> a.(i).[j] = '1')

  let bit_matrix obj =
    match field obj "matrix" with
    | Some (Json.List l) -> bit_matrix_of_rows l
    | Some _ -> bad "field \"matrix\" must be a list of row strings"
    | None -> bad "missing field \"matrix\""

  (* [["01","10"], ...] -> Bitmat array; every board is validated by the
     single-matrix rules, and the batch count itself is capped so one
     line cannot queue unbounded work. *)
  let bit_matrices obj =
    let items =
      match field obj "matrices" with
      | Some (Json.List l) -> l
      | Some _ -> bad "field \"matrices\" must be a list of matrices"
      | None -> bad "missing field \"matrices\""
    in
    if List.length items > W.max_batch_size then
      bad "batch exceeds %d-matrix wire limit" W.max_batch_size;
    Array.of_list
      (List.map
         (function
           | Json.List rows -> bit_matrix_of_rows rows
           | _ -> bad "each matrix must be a list of row strings")
         items)

  (* [[1, 2], ["-3", 4], ...] -> Zmatrix; entries are ints or decimal
     strings (bigints larger than a native int must come as strings). *)
  let int_matrix obj =
    let entry = function
      | Json.Int v -> B.of_int v
      | Json.String s -> (
          try B.of_string s
          with _ -> bad "matrix entry %S is not a decimal integer" s)
      | _ -> bad "matrix entries must be integers or decimal strings"
    in
    let rows =
      match field obj "matrix" with
      | Some (Json.List l) -> l
      | Some _ -> bad "field \"matrix\" must be a list of rows"
      | None -> bad "missing field \"matrix\""
    in
    let rows =
      List.map
        (function
          | Json.List r -> Array.of_list (List.map entry r)
          | _ -> bad "matrix rows must be lists")
        rows
    in
    match rows with
    | [] -> bad "matrix has no rows"
    | first :: _ ->
        let nr = List.length rows and nc = Array.length first in
        if nc = 0 then bad "matrix has empty rows";
        if nr > W.max_matrix_side || nc > W.max_matrix_side then
          bad "matrix exceeds %dx%d wire limit" W.max_matrix_side W.max_matrix_side;
        if List.exists (fun r -> Array.length r <> nc) rows then
          bad "matrix rows have unequal lengths";
        let a = Array.of_list rows in
        Zm.init nr nc (fun i j -> a.(i).(j))

  let request_of obj op =
    match op with
    | "ping" -> W.Ping
    | "stats" -> W.Stats
    | "shutdown" -> W.Shutdown
    | "dump_trace" -> W.Dump_trace
    | "exact_cc" ->
        W.Exact_cc
          { matrix = bit_matrix obj;
            use_cache = bool_field ~default:true obj "use_cache" }
    | "singular" -> W.Singular { matrix = int_matrix obj }
    | "lemma32" ->
        W.Lemma32
          { n = int_field ~default:7 obj "n";
            k = int_field ~default:2 obj "k";
            seed = int_field ~default:0 obj "seed" }
    | "lower_bounds" -> W.Lower_bounds { matrix = bit_matrix obj }
    | "protocol" ->
        W.Protocol_run
          { proto = string_field ~default:"trivial" obj "protocol";
            n = int_field ~default:7 obj "n";
            k = int_field ~default:2 obj "k";
            seed = int_field ~default:0 obj "seed";
            epsilon = float_field ~default:0.01 obj "epsilon" }
    | "rank_batch" -> W.Rank_batch { matrices = bit_matrices obj }
    | other -> bad "unknown op %S" other

  (* Optional per-request deadline, in milliseconds of wall budget from
     the moment the daemon parses the request.  0 or negative is a
     client bug worth rejecting loudly rather than an instant timeout. *)
  let deadline_of obj =
    match field obj "deadline_ms" with
    | None -> None
    | Some (Json.Int v) ->
        if v <= 0 then bad "field \"deadline_ms\" must be > 0" else Some v
    | Some _ -> bad "field \"deadline_ms\" must be an integer"

  let parse line =
    match Json.of_string line with
    | exception Failure msg -> Error (Json.Null, "malformed JSON: " ^ msg)
    | Json.Obj _ as obj -> (
        let id = Option.value (field obj "id") ~default:Json.Null in
        match field obj "op" with
        | Some (Json.String op) -> (
            try Ok { W.id; op; deadline_ms = deadline_of obj; req = request_of obj op }
            with Bad msg -> Error (id, msg))
        | Some _ -> Error (id, "field \"op\" must be a string")
        | None -> Error (id, "missing field \"op\""))
    | _ -> Error (Json.Null, "request must be a JSON object")
end

let wire_parse = Wire_tree.parse
