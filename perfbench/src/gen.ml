(* Workload inputs.  Everything here is a pure function of the seed
   (and, for engine-search, of the committed corpus file): the same seed
   gives the same requests in the same order.  The program under test
   only ever sees the generated payloads. *)

module Json = Commx_util.Json
module Prng = Commx_util.Prng
module Traffic = Commx_util.Traffic
module Bm = Commx_util.Bitmat
module B = Commx_bigint.Bigint
module Zm = Commx_linalg.Zmatrix

type payload =
  | P_exact of Bm.t
  | P_singular of Zm.t
  | P_lower of Bm.t
  | P_proto of int  (* instance seed *)
  | P_batch of Bm.t array

let op = function
  | P_exact _ -> "exact_cc"
  | P_singular _ -> "singular"
  | P_lower _ -> "lower_bounds"
  | P_proto _ -> "protocol"
  | P_batch _ -> "rank_batch"

(* serve-mix shapes: the default Traffic mix at the sizes `ccmx bench
   load` replays, so the two stay comparable. *)
let mix_exact_side = 6
let singular_side = 8
let singular_bits = 8
let lower_side = 8
let proto_n = 7
let proto_k = 2

(* serve-hot and serve-batch boards. *)
let hot_side = 16
let hot_working_set = 256
let batch_side = 16
let batch_size = 1024

let mix_payload (r : Traffic.request) =
  let g = Prng.create r.Traffic.seed in
  match r.Traffic.kind with
  | Traffic.Exact_cc -> P_exact (Bm.random g mix_exact_side mix_exact_side)
  | Traffic.Singular ->
      (* One in four boards is rank-deficient by construction, so both
         singularity verdicts are answered. *)
      if Prng.int g 4 = 0 then
        P_singular
          (Zm.random_of_rank g ~rows:singular_side ~cols:singular_side
             ~rank:(singular_side - 1))
      else
        P_singular
          (Zm.random_kbit g ~rows:singular_side ~cols:singular_side
             ~k:singular_bits)
  | Traffic.Lower_bounds -> P_lower (Bm.random g lower_side lower_side)
  | Traffic.Protocol -> P_proto (Prng.int g 1_000_000)

(* serve-mix: one closed-loop stream; warm-up and timed phases take
   consecutive slices of it, so every payload is distinct. *)
let mix_stream ~seed ~count =
  Traffic.stream ~seed ~mix:Traffic.default_mix
    ~arrival:(Traffic.Closed { concurrency = 1 })
    ~count

let hot_set ~seed =
  let g = Prng.create seed in
  Array.init hot_working_set (fun _ -> Bm.random g hot_side hot_side)

(* The order in which serve-hot asks for working-set members. *)
let hot_picker ~seed =
  let g = Prng.split (Prng.create seed) in
  fun () -> Prng.int g hot_working_set

(* serve-batch: batch [k] of a seed is always the same 1024 boards. *)
let batch ~seed k =
  let g = Prng.create ((seed * 1_000_003) + k) in
  P_batch (Array.init batch_size (fun _ -> Bm.random g batch_side batch_side))

(* ------------------------------------------------------------------ *)
(* Wire fields                                                         *)
(* ------------------------------------------------------------------ *)

let bit_rows m =
  Json.List
    (List.init (Bm.rows m) (fun i ->
         Json.String
           (String.init (Bm.cols m) (fun j -> if Bm.get m i j then '1' else '0'))))

let fields = function
  | P_exact m | P_lower m -> [ ("matrix", bit_rows m) ]
  | P_singular m ->
      [ ( "matrix",
          Json.List
            (List.init (Zm.rows m) (fun i ->
                 Json.List
                   (List.init (Zm.cols m) (fun j ->
                        Json.Int (B.to_int (Zm.get m i j)))))) ) ]
  | P_proto seed ->
      [ ("protocol", Json.String "trivial"); ("n", Json.Int proto_n);
        ("k", Json.Int proto_k); ("seed", Json.Int seed) ]
  | P_batch ms -> [ ("matrices", Json.List (Array.to_list (Array.map bit_rows ms))) ]

(* The exact line [Commx_serve.Client.request] puts on the socket for
   request number [id] of a connection. *)
let line ~id payload =
  Commx_serve.Wire.to_line
    (Json.Obj
       (("op", Json.String (op payload)) :: ("id", Json.Int id) :: fields payload))

(* ------------------------------------------------------------------ *)
(* engine-search                                                       *)
(* ------------------------------------------------------------------ *)

(* Random 9x9 density-1/2 boards take one of three paths of very
   different cost.  Over the boards the corpus generator drew, about 54%
   settle at the root on the rank/fooling bound alone (~20 us), 31% once
   the log-rank member is computed (~200 us), and 15% search (0.4-1.4 s;
   nearly all of value 5, which must refute every 4-bit protocol).  A
   run holds only ~15 searching boards, so letting each seed draw its
   own mix would move qps and the tail by whole boards from seed to
   seed.  So every run uses the natural shares as a fixed pattern,
   blocks of twenty: eleven rank/fooling boards, six log-rank boards and
   three searching boards ([layout]).

   All boards come from a committed corpus of seeded random boards,
   already classified, with their exact CC (perfbench/data/
   engine_corpus.txt, written by `main.exe corpus`), so a run never
   classifies anything.  The corpus holds about what one run gets
   through, so every run sees nearly the same boards.  The seed picks the
   order of each path's boards and a row/column relabeling of each
   board. *)

let engine_side = 9

type path = Rank_fooling | Log_rank | Search

let path_name = function
  | Rank_fooling -> "rank_fooling"
  | Log_rank -> "log_rank"
  | Search -> "search"

let path_of_name = function
  | "rank_fooling" -> Rank_fooling
  | "log_rank" -> Log_rank
  | "search" -> Search
  | s -> failwith ("corpus: unknown path " ^ s)

(* One block: R rank/fooling, L log-rank, S searching. *)
let layout = "RRRRLLSRRRLLSRRRRLLS"
let block = String.length layout
let path_at i = match layout.[i] with 'R' -> Rank_fooling | 'L' -> Log_rank | _ -> Search
let per_block path = List.length (List.filter (( = ) path) (List.init block path_at))

(* How many boards of each path the corpus holds. *)
let corpus_size = function Rank_fooling -> 66 | Log_rank -> 36 | Search -> 15

type corpus_board = { path : path; cc : int; nodes : int; board : Bm.t }

let board_of_rows rows =
  let nr = List.length rows in
  let nc = match rows with r :: _ -> String.length r | [] -> 0 in
  let a = Array.of_list rows in
  Bm.init nr nc (fun i j ->
      match a.(i).[j] with
      | '0' -> false
      | '1' -> true
      | _ -> failwith "corpus: row is not 0/1")

let rows_of_board m =
  List.init (Bm.rows m) (fun i ->
      String.init (Bm.cols m) (fun j -> if Bm.get m i j then '1' else '0'))

let corpus_line c =
  String.concat " "
    (path_name c.path :: string_of_int c.cc :: string_of_int c.nodes
   :: rows_of_board c.board)

let parse_corpus text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | path :: cc :: nodes :: rows ->
             { path = path_of_name path; cc = int_of_string cc;
               nodes = int_of_string nodes; board = board_of_rows rows }
         | _ -> failwith ("corpus: malformed line " ^ l))

(* A uniformly random row and column relabeling: the exact CC is
   invariant, the search order (and so the node count) is not. *)
let relabel g m =
  let rp = Array.init (Bm.rows m) Fun.id and cp = Array.init (Bm.cols m) Fun.id in
  Prng.shuffle g rp;
  Prng.shuffle g cp;
  Bm.init (Bm.rows m) (Bm.cols m) (fun i j -> Bm.get m rp.(i) cp.(j))

(* Board [i] of a run: the path [layout] puts there, the next board of
   that path in the seed's order (cycled if a run outlasts the corpus),
   relabeled by a generator of its own, so the board depends only on
   the seed and [i]. *)
let engine_stream ~seed corpus =
  let g = Prng.create seed in
  let of_path p =
    let a = Array.of_list (List.filter (fun c -> c.path = p) corpus) in
    if Array.length a = 0 then failwith ("corpus: no " ^ path_name p ^ " boards");
    Prng.shuffle g a;
    a
  in
  let rf = of_path Rank_fooling and lr = of_path Log_rank and se = of_path Search in
  fun i ->
    let p = path_at (i mod block) in
    let a = match p with Rank_fooling -> rf | Log_rank -> lr | Search -> se in
    let before =
      List.length (List.filter (( = ) p) (List.init (i mod block) path_at))
    in
    let k = (i / block * per_block p) + before in
    let c = a.(k mod Array.length a) in
    { c with board = relabel (Prng.create ((seed * 1_000_003) + i)) c.board }
