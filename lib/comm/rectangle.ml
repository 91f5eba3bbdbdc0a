module Bm = Commx_util.Bitmat
module Bv = Commx_util.Bitvec
module Prng = Commx_util.Prng
module Tel = Commx_util.Telemetry

(* Candidate rectangles examined: [2^rows] subsets for the exact
   enumerator, one per restart for the greedy search.  A function of
   the matrix shape / restart budget only, so jobs-invariant. *)
let candidates_counter = Tel.counter "rectangle.candidates"

type rect = { row_set : int array; col_set : int array }

let area r = Array.length r.row_set * Array.length r.col_set

let is_monochromatic m r =
  if area r = 0 then None
  else begin
    let v0 = Bm.get m r.row_set.(0) r.col_set.(0) in
    let mono = ref true in
    Array.iter
      (fun i ->
        Array.iter (fun j -> if Bm.get m i j <> v0 then mono := false) r.col_set)
      r.row_set;
    if !mono then Some v0 else None
  end

let count_ones_rectangle_rows m rows_sel =
  let cols = Bm.cols m in
  let acc = ref [] in
  for j = cols - 1 downto 0 do
    if Array.for_all (fun i -> Bm.get m i j) rows_sel then acc := j :: !acc
  done;
  Array.of_list !acc

let ascending v =
  Array.of_list (List.rev (Bv.fold_set_bits (fun j acc -> j :: acc) v []))

(* One cap for the row enumeration: 2^20 subsets. *)
let max_enum_rows = 20

(* Enumerate over subsets of the smaller dimension: for a row subset S,
   the best rectangle with that row set uses all columns that are ones
   on every row of S.  A depth-first walk over ascending row lists keeps
   the column intersection of the path in [stack], one AND per subset,
   and skips a subtree once (path rows + rows left) * (columns left)
   falls below the best area.  Ties go to the smallest row mask: the
   first strict maximum of an ascending-mask scan. *)
let max_one_rectangle_exact ?(min_rows = 1) m =
  (* The transpose speed-up enumerates the smaller dimension, but a
     min_rows constraint refers to the original rows, so it disables
     the swap. *)
  let transposed = min_rows <= 1 && Bm.rows m > Bm.cols m in
  let work = if transposed then Bm.transpose m else m in
  let nr = Bm.rows work and nc = Bm.cols work in
  if nr > max_enum_rows then
    invalid_arg "Rectangle.max_one_rectangle_exact: dimension too large";
  Tel.add candidates_counter (1 lsl nr);
  let w = Bv.words_for nc in
  let rows = Bm.to_words work in
  (* [stack.(d * w ..)]: columns common to the first [d] path rows. *)
  let stack = Array.make ((nr + 1) * w) 0 in
  Bv.blit_words (Bv.lognot (Bv.create nc)) stack 0;
  let best_area = ref 0 and best_mask = ref 0 in
  let rec visit d first mask =
    for i = first to nr - 1 do
      let ncols = ref 0 in
      for t = 0 to w - 1 do
        let x = stack.((d * w) + t) land rows.((i * w) + t) in
        stack.(((d + 1) * w) + t) <- x;
        ncols := !ncols + Bv.popcount_int x
      done;
      let k = d + 1 and mask = mask lor (1 lsl i) in
      let area = k * !ncols in
      if k >= min_rows && area > 0
         && (area > !best_area || (area = !best_area && mask < !best_mask))
      then begin
        best_area := area;
        best_mask := mask
      end;
      if !ncols > 0 && (k + nr - 1 - i) * !ncols >= !best_area then
        visit (d + 1) (i + 1) mask
    done
  in
  visit 0 0 0;
  let best =
    if !best_area = 0 then { row_set = [||]; col_set = [||] }
    else begin
      let row_set = ascending (Bv.of_int nr !best_mask) in
      let inter = Array.sub stack 0 w in
      Array.iter
        (fun i ->
          for t = 0 to w - 1 do
            inter.(t) <- inter.(t) land rows.((i * w) + t)
          done)
        row_set;
      { row_set; col_set = ascending (Bv.of_words nc inter 0) }
    end
  in
  if transposed then { row_set = best.col_set; col_set = best.row_set }
  else best

let max_zero_rectangle_exact ?min_rows m =
  max_one_rectangle_exact ?min_rows (Bm.complement m)

let max_one_rectangle_greedy g ?(restarts = 32) m =
  let nr = Bm.rows m and nc = Bm.cols m in
  if nr = 0 || nc = 0 then { row_set = [||]; col_set = [||] }
  else begin
    Tel.add candidates_counter restarts;
    let best = ref { row_set = [||]; col_set = [||] } in
    let best_area = ref 0 in
    for _ = 1 to restarts do
      (* Seed with a random one-entry, then greedily add rows in random
         order while the column intersection stays profitable. *)
      let i0 = Prng.int g nr in
      let cols0 = count_ones_rectangle_rows m [| i0 |] in
      if Array.length cols0 > 0 then begin
        let rows_sel = ref [ i0 ] in
        let cols_cur = ref cols0 in
        let order = Array.init nr (fun i -> i) in
        Prng.shuffle g order;
        Array.iter
          (fun i ->
            if not (List.mem i !rows_sel) then begin
              let surviving =
                Array.of_list
                  (List.filter
                     (fun j -> Bm.get m i j)
                     (Array.to_list !cols_cur))
              in
              let new_area = (List.length !rows_sel + 1) * Array.length surviving in
              let cur_area = List.length !rows_sel * Array.length !cols_cur in
              if new_area >= cur_area && Array.length surviving > 0 then begin
                rows_sel := i :: !rows_sel;
                cols_cur := surviving
              end
            end)
          order;
        let r = { row_set = Array.of_list !rows_sel; col_set = !cols_cur } in
        if area r > !best_area then begin
          best_area := area r;
          best := r
        end
      end
    done;
    !best
  end

let cover_lower_bound m ~exact =
  let ones = Bm.count_ones m in
  let zeros = (Bm.rows m * Bm.cols m) - ones in
  let one_rect, zero_rect =
    if exact then
      (max_one_rectangle_exact m, max_zero_rectangle_exact m)
    else begin
      (* The zero rectangle draws first: the order in which the
         answers have always been computed. *)
      let g = Prng.create 42 in
      let zero = max_one_rectangle_greedy g (Bm.complement m) in
      (max_one_rectangle_greedy g m, zero)
    end
  in
  let parts_for count rect =
    if count = 0 then 0.0
    else if area rect = 0 then infinity
    else float_of_int count /. float_of_int (area rect)
  in
  let total = parts_for ones one_rect +. parts_for zeros zero_rect in
  if total <= 0.0 then 0.0 else log total /. log 2.0
