module Bm = Commx_util.Bitmat
module Tel = Commx_util.Telemetry

type ('a, 'b) t = {
  row_args : 'a array;
  col_args : 'b array;
  values : Bm.t;
}

let built_counter = Tel.counter "truth_matrix.built"
let cells_counter = Tel.counter "truth_matrix.cells"

let count_built nr nc =
  if Tel.metrics_on () then begin
    Tel.incr built_counter;
    Tel.add cells_counter (nr * nc)
  end

let build xs ys f =
  let row_args = Array.of_list xs and col_args = Array.of_list ys in
  count_built (Array.length row_args) (Array.length col_args);
  let values =
    Bm.init (Array.length row_args) (Array.length col_args) (fun i j ->
        f row_args.(i) col_args.(j))
  in
  { row_args; col_args; values }

let of_bitmat m =
  let nr = Bm.rows m and nc = Bm.cols m in
  count_built nr nc;
  { row_args = Array.init nr Fun.id; col_args = Array.init nc Fun.id;
    values = Bm.copy m }

let rows t = Array.length t.row_args
let cols t = Array.length t.col_args

let get t i j = Bm.get t.values i j

let count_ones t = Bm.count_ones t.values
let count_zeros t = (rows t * cols t) - count_ones t

let ones_per_row t =
  Array.init (rows t) (fun i ->
      let c = ref 0 in
      for j = 0 to cols t - 1 do
        if get t i j then incr c
      done;
      !c)

let ones_per_col t =
  Array.init (cols t) (fun j ->
      let c = ref 0 in
      for i = 0 to rows t - 1 do
        if get t i j then incr c
      done;
      !c)

let density t =
  if rows t = 0 || cols t = 0 then 0.0
  else float_of_int (count_ones t) /. float_of_int (rows t * cols t)

let to_bitmat t = Bm.copy t.values

let restrict t row_idx col_idx =
  {
    row_args = Array.map (fun i -> t.row_args.(i)) row_idx;
    col_args = Array.map (fun j -> t.col_args.(j)) col_idx;
    values = Bm.submatrix t.values row_idx col_idx;
  }

let map_labels f g t =
  {
    row_args = Array.map f t.row_args;
    col_args = Array.map g t.col_args;
    values = Bm.copy t.values;
  }
