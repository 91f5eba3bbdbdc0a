module Bm = Commx_util.Bitmat
module Bv = Commx_util.Bitvec

type t = (int * int) list

let is_fooling_set tm s =
  let ok_entry (i, j) = Truth_matrix.get tm i j in
  let ok_pair (i1, j1) (i2, j2) =
    (not (Truth_matrix.get tm i1 j2)) || not (Truth_matrix.get tm i2 j1)
  in
  List.for_all ok_entry s
  &&
  let rec pairs = function
    | [] -> true
    | p :: rest -> List.for_all (ok_pair p) rest && pairs rest
  in
  pairs s

(* Greedy passes on row words.  Choosing (i', j') rules out exactly the
   later cells (i, j) with M[i][j'] = M[i'][j] = 1, so it ORs row i'
   into the [blocked] row of every row i with a one in column j'; a
   cell is accepted iff it is a one and not blocked.  Rows and blocked
   rows are [Bitmat.to_words] arrays, any width.  Cells are indices
   [i * cols + j]; [picked] holds the accepted ones in order. *)
type scan = {
  nr : int;
  nc : int;
  w : int;
  rows : int array;
  blocked : int array;
  picked : int array;
}

let bpw = Bv.bits_per_word

let scan_of tm =
  let m = tm.Truth_matrix.values in
  let nr = Bm.rows m and nc = Bm.cols m in
  let rows = Bm.to_words m in
  { nr; nc; w = Bv.words_for nc; rows;
    blocked = Array.make (Array.length rows) 0;
    picked = Array.make (nr * nc) 0 }

(* One pass over the cells in [order]; returns how many it accepted. *)
let pass s order =
  Array.fill s.blocked 0 (Array.length s.blocked) 0;
  let count = ref 0 in
  for x = 0 to Array.length order - 1 do
    let c = order.(x) in
    let i = c / s.nc and j = c mod s.nc in
    let jw = j / bpw and o = j mod bpw in
    let k = (i * s.w) + jw in
    if (s.rows.(k) land lnot s.blocked.(k)) lsr o land 1 = 1 then begin
      s.picked.(!count) <- c;
      incr count;
      for r = 0 to s.nr - 1 do
        if s.rows.((r * s.w) + jw) lsr o land 1 = 1 then
          for t = 0 to s.w - 1 do
            let b = (r * s.w) + t in
            s.blocked.(b) <- s.blocked.(b) lor s.rows.((i * s.w) + t)
          done
      done
    end
  done;
  !count

let cell s x = (s.picked.(x) / s.nc, s.picked.(x) mod s.nc)

let in_order s n = List.init n (cell s)

let reversed s n =
  let acc = ref [] in
  for x = 0 to n - 1 do
    acc := cell s x :: !acc
  done;
  !acc

let greedy tm =
  let s = scan_of tm in
  in_order s (pass s (Array.init (s.nr * s.nc) Fun.id))

let greedy_randomized g ?(restarts = 16) tm =
  let s = scan_of tm in
  let cells = Array.init (s.nr * s.nc) Fun.id in
  let n = pass s cells in
  let best = ref (in_order s n) and best_n = ref n in
  for _ = 1 to restarts do
    Commx_util.Prng.shuffle g cells;
    let n = pass s cells in
    if n > !best_n then begin
      best := reversed s n;
      best_n := n
    end
  done;
  !best

let diagonal_candidate tm =
  let n = min (Truth_matrix.rows tm) (Truth_matrix.cols tm) in
  List.filter
    (fun (i, j) -> Truth_matrix.get tm i j)
    (List.init n (fun i -> (i, i)))

let lower_bound_bits s =
  log (float_of_int (max 1 (List.length s))) /. log 2.0

let is_identity_embedding tm s =
  List.for_all (fun (i, j) -> Truth_matrix.get tm i j) s
  &&
  let rec pairs = function
    | [] -> true
    | (i1, j1) :: rest ->
        List.for_all
          (fun (i2, j2) ->
            (not (Truth_matrix.get tm i1 j2))
            && not (Truth_matrix.get tm i2 j1))
          rest
        && pairs rest
  in
  pairs s

let largest_identity_embedding tm =
  (* Max clique in the compatibility graph over one-cells, where two
     cells are compatible when both cross entries are zero.  Plain
     branch and bound with a remaining-candidates cutoff. *)
  let ones = ref [] in
  for i = Truth_matrix.rows tm - 1 downto 0 do
    for j = Truth_matrix.cols tm - 1 downto 0 do
      if Truth_matrix.get tm i j then ones := (i, j) :: !ones
    done
  done;
  let compat (i1, j1) (i2, j2) =
    (not (Truth_matrix.get tm i1 j2)) && not (Truth_matrix.get tm i2 j1)
  in
  let best = ref [] in
  let rec extend chosen candidates =
    if List.length chosen + List.length candidates <= List.length !best then ()
    else
      match candidates with
      | [] -> if List.length chosen > List.length !best then best := chosen
      | c :: rest ->
          (* include c *)
          extend (c :: chosen) (List.filter (compat c) rest);
          (* exclude c *)
          extend chosen rest
  in
  extend [] !ones;
  !best
