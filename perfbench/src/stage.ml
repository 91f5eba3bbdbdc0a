(* The daemon's request path, replayed in process from the benchmark.

   [handle] walks one request line through the public functions the
   daemon's acceptor and worker call, in the daemon's order:

     parse -> key -> admission -> tag -> find -> kernel -> add -> encode

   (admission and tag run for exact_cc only; kernel and add only on a
   result-cache miss).  The kernels call exactly what the daemon's
   handler calls: Exact_cc.search on a tagged warm table, Zmatrix.det +
   Zmatrix.rank, Rank_bound.analyze, Protocol.execute and
   Bitmat.rank_batch.  So a round trip through the daemon minus this
   pipeline is the wire tax alone, not a kernel swap.

   [reference] is the independent answer the daemon's replies are
   checked against: the same kernels, but exact_cc on a fresh table per
   board, so a mis-salted shared table cannot agree with itself. *)

module Json = Commx_util.Json
module Clock = Commx_util.Clock
module Prng = Commx_util.Prng
module Bm = Commx_util.Bitmat
module Tx = Commx_util.Txtable
module Pool = Commx_util.Pool
module B = Commx_bigint.Bigint
module Zm = Commx_linalg.Zmatrix
module E = Commx_comm.Exact_cc
module Truth_matrix = Commx_comm.Truth_matrix
module Rank_bound = Commx_comm.Rank_bound
module Protocol = Commx_comm.Protocol
module Params = Commx_core.Params
module Bounds = Commx_core.Bounds
module H = Commx_core.Hard_instance
module Halves = Commx_protocols.Halves
module Trivial = Commx_protocols.Trivial
module Wire = Commx_serve.Wire
module Cache = Commx_serve.Cache
open Gen

(* The daemon's content keys (private to Commx_serve.Server), spelled
   the same way so keys have the same size and cost. *)
let bitmat_key m =
  let buf = Buffer.create 80 in
  Buffer.add_string buf (Printf.sprintf "%dx%d:" (Bm.rows m) (Bm.cols m));
  for i = 0 to Bm.rows m - 1 do
    if i > 0 then Buffer.add_char buf '.';
    for j = 0 to Bm.cols m - 1 do
      Buffer.add_char buf (if Bm.get m i j then '1' else '0')
    done
  done;
  Buffer.contents buf

let zmatrix_key m =
  let buf = Buffer.create 80 in
  Buffer.add_string buf (Printf.sprintf "%dx%d:" (Zm.rows m) (Zm.cols m));
  for i = 0 to Zm.rows m - 1 do
    for j = 0 to Zm.cols m - 1 do
      Buffer.add_string buf (B.to_string (Zm.get m i j));
      Buffer.add_char buf ','
    done
  done;
  Buffer.contents buf

let content_key (req : Wire.request) =
  match req with
  | Wire.Exact_cc { matrix; _ } -> Some ("exact_cc:" ^ E.canonical_key matrix)
  | Wire.Singular { matrix } -> Some ("singular:" ^ zmatrix_key matrix)
  | Wire.Lower_bounds { matrix } -> Some ("lower_bounds:" ^ bitmat_key matrix)
  | Wire.Protocol_run { proto; n; k; seed; epsilon } ->
      Some (Printf.sprintf "protocol:%s:%d:%d:%d:%h" proto n k seed epsilon)
  | Wire.Rank_batch { matrices } ->
      Some
        ("rank_batch:"
        ^ String.concat "|" (Array.to_list (Array.map bitmat_key matrices)))
  | Wire.Ping | Wire.Stats | Wire.Shutdown | Wire.Dump_trace | Wire.Lemma32 _
    ->
      None

(* ------------------------------------------------------------------ *)
(* Kernels: the daemon handler's calls, returning its cacheable fields  *)
(* ------------------------------------------------------------------ *)

let exact_fields v (st : E.stats) =
  [ ("value", Json.Int v); ("canon_rows", Json.Int st.E.canon_rows);
    ("canon_cols", Json.Int st.E.canon_cols);
    ("root_lower", Json.Int st.E.root_lower);
    ("root_upper", Json.Int st.E.root_upper) ]

let singular_fields m =
  let d = Zm.det m in
  [ ("dimension", Json.Int (Zm.rows m)); ("rank", Json.Int (Zm.rank m));
    ("det", Json.String (B.to_string d)); ("singular", Json.Bool (B.is_zero d)) ]

let lower_fields m =
  let nr = Bm.rows m and nc = Bm.cols m in
  let tm =
    Truth_matrix.build (List.init nr Fun.id) (List.init nc Fun.id) (fun i j ->
        Bm.get m i j)
  in
  let r = Rank_bound.analyze tm ~exact_rect:(nr * nc <= 64) in
  [ ("gf2_rank", Json.Int r.Rank_bound.gf2);
    ("rational_rank", Json.Int r.Rank_bound.rational);
    ("log_rank_bits", Json.Float r.Rank_bound.log_rank);
    ("fooling_set", Json.Int r.Rank_bound.fooling);
    ("fooling_bits", Json.Float r.Rank_bound.fooling_bits);
    ("cover_bits", Json.Float r.Rank_bound.cover_bits);
    ("trivial_upper_bits", Json.Float r.Rank_bound.trivial_upper) ]

let protocol_fields ~n ~k seed =
  let p = Params.make ~n ~k in
  let g = Prng.create seed in
  let m = H.build_m p (H.random_free g p) in
  let alice, bob = Halves.split_pi0 m in
  let truth = Zm.is_singular m in
  let got, bits = Protocol.execute (Trivial.singularity ~k) alice bob in
  [ ("protocol", Json.String "trivial"); ("answer", Json.Bool got);
    ("truth", Json.Bool truth); ("agrees", Json.Bool (got = truth));
    ("bits", Json.Int bits);
    ("trivial_upper_bits", Json.Int (Bounds.trivial_upper_bits ~n ~k)) ]

let batch_fields ms =
  let ranks = Bm.rank_batch ms in
  [ ("values", Json.List (Array.to_list (Array.map (fun v -> Json.Int v) ranks)));
    ("count", Json.Int (Array.length ranks)) ]

(* The independent reference answer of one payload. *)
let reference = function
  | P_exact m ->
      let v, st = E.search m in
      exact_fields v st
  | P_singular m -> singular_fields m
  | P_lower m -> lower_fields m
  | P_proto seed -> protocol_fields ~n:proto_n ~k:proto_k seed
  | P_batch ms -> batch_fields ms

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)
(* ------------------------------------------------------------------ *)

(* One answer string per request, built from the reference's cacheable
   fields: the daemon's reply agrees when it carries every one of them
   with the same value. *)
let answer fields = String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) fields)

let answer_of_reply ~like reply =
  answer
    (List.map
       (fun (k, _) -> (k, Option.value (Json.member k reply) ~default:Json.Null))
       like)

(* An exact_cc value is only sound between the certified root bounds. *)
let within_root_bounds reply =
  match
    ( Json.member "value" reply, Json.member "root_lower" reply,
      Json.member "root_upper" reply )
  with
  | Some (Json.Int v), Some (Json.Int lo), Some (Json.Int hi) -> lo <= v && v <= hi
  | _ -> false

(* A reply passes when it carries the reference's fields [like], and an
   exact_cc reply additionally lies within its own root bounds. *)
let agrees ~like payload reply =
  answer_of_reply ~like reply = answer like
  && match payload with P_exact _ -> within_root_bounds reply | _ -> true

(* ------------------------------------------------------------------ *)
(* The staged pipeline                                                 *)
(* ------------------------------------------------------------------ *)

type pipeline = {
  cache : Cache.t;
  tags : Cache.Tags.t;
  table : Tx.t;  (* the single worker's warm segment *)
  spans : Spans.t;
  search_stats : (int * E.stats * int) Queue.t;
      (* (request, stats, search ns) of every exact_cc kernel call *)
  mutable parse_words : float list;  (* minor words of each recorded parse *)
}

let pipeline () =
  { cache = Cache.create ~capacity:1024; tags = Cache.Tags.create ();
    table = Tx.create (); spans = Spans.create ();
    search_stats = Queue.create (); parse_words = [] }

let kernel p ~tag (req : Wire.request) =
  match req with
  | Wire.Exact_cc { matrix; _ } ->
      let t0 = Clock.now_ns () in
      let v, st =
        E.search ~table:p.table ~key_tag:(Option.value tag ~default:0) matrix
      in
      (exact_fields v st, Some (st, Clock.now_ns () - t0))
  | Wire.Singular { matrix } -> (singular_fields matrix, None)
  | Wire.Lower_bounds { matrix } -> (lower_fields matrix, None)
  | Wire.Protocol_run { n; k; seed; _ } -> (protocol_fields ~n ~k seed, None)
  | Wire.Rank_batch { matrices } -> (batch_fields matrices, None)
  | _ -> failwith "stage: not a compute op"

(* Serve one request line in process.  With [~record:false] (priming)
   nothing is recorded; otherwise every stage is one span under a
   "request" root span carrying the request id [req].  Returns the
   reply line. *)
let handle p ?(record = true) ~req line =
  let t_req = Clock.now_ns () in
  let root = Spans.fresh_id p.spans in
  let stage name f =
    if record then Spans.time p.spans ~req ~parent:root name f else f ()
  in
  let words = ref 0.0 in
  let env =
    match
      stage "parse" (fun () ->
          let w0 = Gc.minor_words () in
          let r = Wire.parse line in
          words := Gc.minor_words () -. w0;
          r)
    with
    | Ok env -> env
    | Error (_, msg) -> failwith ("stage: parse failed: " ^ msg)
  in
  if record then p.parse_words <- !words :: p.parse_words;
  let key = Option.get (stage "key" (fun () -> content_key env.Wire.req)) in
  let tag =
    match env.Wire.req with
    | Wire.Exact_cc { matrix; _ } ->
        let r, c = stage "admission" (fun () -> E.canonical_dims matrix) in
        if r > E.max_side || c > E.max_side then failwith "stage: too large";
        Some (stage "tag" (fun () -> Cache.Tags.tag p.tags key))
    | _ -> None
  in
  let reply =
    match stage "find" (fun () -> Cache.find p.cache key) with
    | Some (Json.Obj core) ->
        let extra =
          match env.Wire.req with
          | Wire.Exact_cc _ ->
              [ ("nodes", Json.Int 0); ("table_hits", Json.Int 1);
                ("table_misses", Json.Int 0) ]
          | _ -> []
        in
        stage "encode" (fun () ->
            Wire.to_line
              (Wire.ok ~id:env.Wire.id ~op:env.Wire.op
                 (core @ extra @ [ ("cache", Json.String "hit"); ("wall_us", Json.Int 0) ])))
    | Some _ | None ->
        let core, search = stage "kernel" (fun () -> kernel p ~tag env.Wire.req) in
        let extra =
          match search with
          | Some (st, ns) ->
              if record then Queue.push (req, st, ns) p.search_stats;
              [ ("nodes", Json.Int st.E.nodes);
                ("table_hits", Json.Int st.E.table_hits);
                ("table_misses", Json.Int st.E.table_misses) ]
          | None -> []
        in
        stage "add" (fun () -> Cache.add p.cache key (Json.Obj core));
        stage "encode" (fun () ->
            Wire.to_line
              (Wire.ok ~id:env.Wire.id ~op:env.Wire.op
                 (core @ extra @ [ ("cache", Json.String "miss"); ("wall_us", Json.Int 0) ])))
  in
  if record then
    Spans.push p.spans ~id:root ~req ~parent:0 ~name:"request" ~start_ns:t_req
      ~dur_ns:(Clock.now_ns () - t_req);
  reply

(* ------------------------------------------------------------------ *)
(* engine-search                                                       *)
(* ------------------------------------------------------------------ *)

(* Which path decides [m]: [Rank_fooling] when the root bounds settle
   it and the rank/fooling member alone meets the trivial upper bound,
   [Log_rank] when a later portfolio member (log-rank, discrepancy) is
   needed, [Search] when it searches.  Searched under an
   already-cancelled token, a board the root bounds decide returns at
   once with zero nodes; any other board is stopped at the first
   cancellation poll.  Only the corpus generator classifies boards. *)
let root_path m =
  let cancel = Pool.Token.create () in
  Pool.Token.cancel cancel;
  match E.search ~cancel m with
  | _, st when st.E.nodes = 0 ->
      if List.assoc "rank_fooling" (E.lower_bound_portfolio m) >= st.E.root_upper
      then Rank_fooling
      else Log_rank
  | _ -> Search
  | exception E.Timed_out _ -> Search
