module B = Commx_bigint.Bigint
module Bitmat = Commx_util.Bitmat
module Zm = Commx_linalg.Zmatrix

type 'a t = 'a -> 'a Seq.t

let nothing _ = Seq.empty

(* Order-preserving dedup; candidate lists are tiny. *)
let dedup xs =
  let rec go seen = function
    | [] -> []
    | x :: tl -> if List.mem x seen then go seen tl else x :: go (x :: seen) tl
  in
  go [] xs

let int x =
  if x = 0 then Seq.empty
  else
    let step = if x > 0 then x - 1 else x + 1 in
    List.to_seq (dedup (List.filter (fun v -> v <> x) [ 0; x / 2; step ]))

let pair sa sb (a, b) =
  Seq.append
    (Seq.map (fun a' -> (a', b)) (sa a))
    (Seq.map (fun b' -> (a, b')) (sb b))

let triple sa sb sc (a, b, c) =
  Seq.append
    (Seq.map (fun a' -> (a', b, c)) (sa a))
    (Seq.append
       (Seq.map (fun b' -> (a, b', c)) (sb b))
       (Seq.map (fun c' -> (a, b, c')) (sc c)))

let array ?(elt = nothing) () a =
  let n = Array.length a in
  let halves =
    if n = 0 then Seq.empty
    else if n = 1 then Seq.return [||]
    else
      List.to_seq [ Array.sub a 0 (n / 2); Array.sub a (n / 2) (n - (n / 2)) ]
  in
  let drop_one =
    if n < 2 || n > 16 then Seq.empty
    else
      Seq.init n (fun i ->
          Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1)))
  in
  let elements =
    Seq.concat_map
      (fun i ->
        Seq.map
          (fun e ->
            let a' = Array.copy a in
            a'.(i) <- e;
            a')
          (elt a.(i)))
      (Seq.init n Fun.id)
  in
  Seq.append halves (Seq.append drop_one elements)

let list ?elt () l =
  Seq.map Array.to_list (array ?elt () (Array.of_list l))

let bigint x =
  if B.is_zero x then Seq.empty
  else
    let halved = B.shift_right x 1 in
    List.to_seq
      (if B.equal halved B.zero then [ B.zero ] else [ B.zero; halved ])

let bitmat m =
  let r = Bitmat.rows m and c = Bitmat.cols m in
  let idx n = Array.init n Fun.id in
  let dim_halves =
    List.filter_map Fun.id
      [
        (if r > 1 then Some (Bitmat.submatrix m (idx (r / 2)) (idx c))
         else None);
        (if c > 1 then Some (Bitmat.submatrix m (idx r) (idx (c / 2)))
         else None);
      ]
  in
  let cleared = ref [] in
  for i = r - 1 downto 0 do
    for j = c - 1 downto 0 do
      if Bitmat.get m i j then begin
        let m' = Bitmat.copy m in
        Bitmat.set m' i j false;
        cleared := m' :: !cleared
      end
    done
  done;
  List.to_seq (dim_halves @ !cleared)

let zmatrix m =
  let r = Zm.rows m and c = Zm.cols m in
  let keep n drop =
    Array.of_list (List.filter (( <> ) drop) (List.init n Fun.id))
  in
  let all n = Array.init n Fun.id in
  let drop_row = Seq.init r (fun i -> Zm.submatrix m (keep r i) (all c)) in
  let drop_col = Seq.init c (fun j -> Zm.submatrix m (all r) (keep c j)) in
  let entries =
    Seq.concat_map
      (fun k ->
        let i = k / c and j = k mod c in
        Seq.map
          (fun v ->
            let m' = Zm.copy m in
            Zm.set m' i j v;
            m')
          (bigint (Zm.get m i j)))
      (Seq.init (r * c) Fun.id)
  in
  Seq.append drop_row (Seq.append drop_col entries)
