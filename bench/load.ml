(* Load-replay bench: `ccmx bench load`.

   Replays a seeded synthetic traffic mix (Commx_util.Traffic) against
   either the in-process engine or a live `ccmx serve` daemon, and
   reports throughput and latency SLOs (p50/p95/p99) per query kind
   plus batch-vs-scalar speedup rows for the amortized kernels.

   Determinism contract (asserted by scripts/load_soak.sh and CI):
   - the request stream is a pure function of (seed, mix, arrival,
     count) — Traffic.stream never sees --jobs;
   - every answer is a pure function of its request payload, so the
     id-ordered answer digest is identical at any --jobs and identical
     between the in-process engine and a daemon replay.  Latencies and
     throughput are the only fields allowed to vary between runs.

   With --json DIR the run writes DIR/BENCH_load.json (schema v3, same
   writer as every other artifact).  scripts/perf_gate.py reads the
   "all" row's qps as the CI throughput floor. *)

module Json = Commx_util.Json
module Prng = Commx_util.Prng
module Clock = Commx_util.Clock
module Stats = Commx_util.Stats
module Artifact = Commx_util.Artifact
module Traffic = Commx_util.Traffic
module Bm = Commx_util.Bitmat
module Tx = Commx_util.Txtable
module B = Commx_bigint.Bigint
module Zm = Commx_linalg.Zmatrix
module E = Commx_comm.Exact_cc
module Truth_matrix = Commx_comm.Truth_matrix
module Rank_bound = Commx_comm.Rank_bound
module Protocol = Commx_comm.Protocol
module Params = Commx_core.Params
module H = Commx_core.Hard_instance
module Halves = Commx_protocols.Halves
module Trivial = Commx_protocols.Trivial
module Client = Commx_serve.Client
module Cache = Commx_serve.Cache

type target = In_process | Daemon of string

type config = {
  seed : int;
  count : int;
  mix : Traffic.mix;
  arrival : Traffic.arrival;
  jobs : int;
  target : target;
  json_dir : string option;
  deadline_ms : int option;
}

(* Pinned payload shapes.  Exact CC boards follow the chaos soak's
   sizing (random 6x6: fast to solve, slow enough to really search);
   rank/singularity boards are 8x8 so the exact rectangle-cover bound
   stays affordable (64 cells) and each determinant needs a CRT over
   several word primes. *)
let exact_cc_side = 6
let singular_side = 8
let singular_bits = 8
let lower_side = 8
let proto_n = 7
let proto_k = 2

type payload =
  | P_exact of Bm.t
  | P_singular of Zm.t
  | P_lower of Bm.t
  | P_proto of int  (* instance seed *)

let materialize (r : Traffic.request) =
  let g = Prng.create r.Traffic.seed in
  match r.Traffic.kind with
  | Traffic.Exact_cc -> P_exact (Bm.random g exact_cc_side exact_cc_side)
  | Traffic.Singular ->
      (* One in four boards is rank-deficient by construction, so the
         singularity path answers both verdicts under load. *)
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

(* ------------------------------------------------------------------ *)
(* Execution: in-process and over the wire                             *)
(* ------------------------------------------------------------------ *)

(* Answers are short canonical strings: the same payload must render
   the same answer whether computed here or by a daemon, which is what
   lets the soak compare digests across targets. *)

(* [table] is the worker's warm table, shared by every board it
   answers; each canonical board searches it under its own tag from
   [tags], as the daemon does, so no board reads another's entries. *)
let answer_in_process ~table ~tags payload =
  match payload with
  | P_exact m ->
      let key_tag = Cache.Tags.tag tags ("exact_cc:" ^ E.canonical_key m) in
      let v, _ = E.search ~table ~key_tag m in
      Printf.sprintf "cc=%d" v
  | P_singular m ->
      Printf.sprintf "singular=%b" (Zm.singular_batch [| m |]).(0)
  | P_lower m ->
      let nr = Bm.rows m and nc = Bm.cols m in
      let tm = Truth_matrix.of_bitmat m in
      let r = Rank_bound.analyze tm ~exact_rect:(nr * nc <= 64) in
      Printf.sprintf "gf2=%d,rat=%d,fool=%d" r.Rank_bound.gf2
        r.Rank_bound.rational r.Rank_bound.fooling
  | P_proto seed ->
      let p = Params.make ~n:proto_n ~k:proto_k in
      let g = Prng.create seed in
      let m = H.build_m p (H.random_free g p) in
      let alice, bob = Halves.split_pi0 m in
      let got, bits =
        Protocol.execute (Trivial.singularity ~k:proto_k) alice bob
      in
      Printf.sprintf "agrees=%b,bits=%d" (got = Zm.is_singular m) bits

let bit_rows m =
  Json.List
    (List.init (Bm.rows m) (fun i ->
         Json.String
           (String.init (Bm.cols m) (fun j -> if Bm.get m i j then '1' else '0'))))

let wire_request = function
  | P_exact m -> ("exact_cc", [ ("matrix", bit_rows m) ])
  | P_singular m ->
      let rows =
        List.init (Zm.rows m) (fun i ->
            Json.List
              (List.init (Zm.cols m) (fun j ->
                   Json.Int (B.to_int (Zm.get m i j)))))
      in
      ("singular", [ ("matrix", Json.List rows) ])
  | P_lower m -> ("lower_bounds", [ ("matrix", bit_rows m) ])
  | P_proto seed ->
      ( "protocol",
        [ ("protocol", Json.String "trivial"); ("n", Json.Int proto_n);
          ("k", Json.Int proto_k); ("seed", Json.Int seed) ] )

let answer_of_reply op reply =
  let geti k =
    match Json.member k reply with
    | Some (Json.Int v) -> v
    | _ -> failwith (Printf.sprintf "reply missing int field %S" k)
  in
  let getb k =
    match Json.member k reply with
    | Some (Json.Bool v) -> v
    | _ -> failwith (Printf.sprintf "reply missing bool field %S" k)
  in
  match op with
  | "exact_cc" -> Printf.sprintf "cc=%d" (geti "value")
  | "singular" -> Printf.sprintf "singular=%b" (getb "singular")
  | "lower_bounds" ->
      Printf.sprintf "gf2=%d,rat=%d,fool=%d" (geti "gf2_rank")
        (geti "rational_rank") (geti "fooling_set")
  | "protocol" -> Printf.sprintf "agrees=%b,bits=%d" (getb "agrees") (geti "bits")
  | op -> failwith ("unexpected op " ^ op)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

exception Request_timeout

(* FNV-1a over the id-ordered answers, folded into a positive native
   int and rendered as hex: an order-independent-of-execution digest
   of WHAT was answered, never how fast. *)
let digest answers =
  (* FNV-1a offset basis folded into OCaml's 63-bit int range. *)
  let h = ref 0x3bf29ce484222325 in
  Array.iter
    (fun s ->
      String.iter
        (fun c ->
          h := (!h lxor Char.code c) * 0x100000001b3;
          h := !h land max_int)
        (s ^ "\x00"))
    answers;
  Printf.sprintf "%x" !h

type outcome = { latencies : float array; status : int array; answers : string array; wall_s : float }

let replay cfg reqs =
  let n = Array.length reqs in
  let latencies = Array.make n 0.0 in
  let status = Array.make n 1 (* 0 ok, 1 error, 2 timeout *) in
  let answers = Array.make n "" in
  let next = Atomic.make 0 in
  let epoch = Clock.now_s () in
  let worker _wid =
    let table = Tx.create () and tags = Cache.Tags.create () in
    let client =
      match cfg.target with
      | In_process -> None
      | Daemon socket_path -> Some (Client.create ~socket_path ())
    in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r = reqs.(i) in
        let payload = materialize r in
        let start =
          match cfg.arrival with
          | Traffic.Closed _ -> Clock.now_s ()
          | Traffic.Open _ ->
              (* Open loop: the request is due at its scheduled instant
                 whether or not we are keeping up, and lateness counts
                 as latency (queueing delay). *)
              let due = epoch +. r.Traffic.arrival_s in
              Clock.sleep_until due;
              due
        in
        (try
           let ans =
             match client with
             | None -> answer_in_process ~table ~tags payload
             | Some c -> (
                 let op, fields = wire_request payload in
                 match Client.request c ?deadline_ms:cfg.deadline_ms ~op fields with
                 | Ok reply -> answer_of_reply op reply
                 | Error (Client.Timed_out _) -> raise Request_timeout
                 | Error e -> failwith (Client.error_to_string e))
           in
           latencies.(i) <- Clock.now_s () -. start;
           answers.(i) <- ans;
           status.(i) <- 0
         with
        | Request_timeout -> status.(i) <- 2
        | _ -> status.(i) <- 1);
        loop ()
      end
    in
    loop ();
    Option.iter Client.close client
  in
  let jobs = max 1 cfg.jobs in
  let domains = Array.init jobs (fun wid -> Domain.spawn (fun () -> worker wid)) in
  Array.iter Domain.join domains;
  { latencies; status; answers; wall_s = Clock.now_s () -. epoch }

(* ------------------------------------------------------------------ *)
(* Batch-vs-scalar speedup section                                     *)
(* ------------------------------------------------------------------ *)

(* Warm once, then best of [reps]: the speedup claim is about kernel
   cost, not allocator or cache warm-up noise. *)
let time_best ?(reps = 3) f =
  ignore (f ());
  let best = ref infinity in
  let result = ref (f ()) in
  for _ = 1 to reps do
    let t0 = Clock.now_s () in
    let r = f () in
    let dt = Clock.now_s () -. t0 in
    if dt < !best then begin
      best := dt;
      result := r
    end
  done;
  (!best, !result)

let jint v = Json.Int v
let jfloat v = Json.Float v
let jstr v = Json.String v
let jbool v = Json.Bool v

let speedup_rows ~seed =
  let g = Prng.create (seed lxor 0x10ad) in
  (* GF(2) rank: the acceptance workload — 1k boards, 16x16. *)
  let boards = Array.init 1000 (fun _ -> Bm.random g 16 16) in
  let scalar_s, scalar_ranks = time_best (fun () -> Array.map Bm.rank boards) in
  let batch_s, batch_ranks = time_best (fun () -> Bm.rank_batch boards) in
  let rank_agree = scalar_ranks = batch_ranks in
  (* Lemma 3.2 singularity: smaller batch.  Both sides run the same
     word-prime ladder (the batch shares one residue buffer); the
     rank-deficient boards make each verdict run the ladder up to its
     Hadamard certificate, not just the first prime. *)
  let mats =
    Array.init 200 (fun i ->
        if i mod 4 = 0 then
          Zm.random_of_rank g ~rows:singular_side ~cols:singular_side
            ~rank:(singular_side - 1)
        else
          Zm.random_kbit g ~rows:singular_side ~cols:singular_side
            ~k:singular_bits)
  in
  let sing_scalar_s, sv = time_best (fun () -> Array.map Zm.is_singular mats) in
  let sing_batch_s, bv = time_best (fun () -> Zm.singular_batch mats) in
  let sing_agree = sv = bv in
  let row name boards scalar_s batch_s agree =
    Json.Obj
      [ ("function", jstr name); ("boards", jint boards);
        ("scalar_s", jfloat scalar_s); ("batch_s", jfloat batch_s);
        ("speedup", jfloat (scalar_s /. batch_s)); ("agree", jbool agree) ]
  in
  ( [ row "rank_batch_16x16" (Array.length boards) scalar_s batch_s rank_agree;
      row "singular_batch_8x8" (Array.length mats) sing_scalar_s sing_batch_s
        sing_agree ],
    rank_agree && sing_agree,
    scalar_s /. batch_s )

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let slo_row name idx (o : outcome) =
  let ok = List.filter (fun i -> o.status.(i) = 0) idx in
  let errors = List.length (List.filter (fun i -> o.status.(i) = 1) idx) in
  let timeouts = List.length (List.filter (fun i -> o.status.(i) = 2) idx) in
  let lat_ms =
    Array.of_list (List.map (fun i -> o.latencies.(i) *. 1e3) ok)
  in
  let pct p = if Array.length lat_ms = 0 then 0.0 else Stats.percentile lat_ms p in
  let mx = if Array.length lat_ms = 0 then 0.0 else snd (Stats.min_max lat_ms) in
  Json.Obj
    [ ("function", jstr name); ("requests", jint (List.length idx));
      ("ok", jint (List.length ok)); ("errors", jint errors);
      ("timeouts", jint timeouts);
      ("qps", jfloat (float_of_int (List.length ok) /. o.wall_s));
      ("p50_ms", jfloat (pct 50.0)); ("p95_ms", jfloat (pct 95.0));
      ("p99_ms", jfloat (pct 99.0)); ("max_ms", jfloat mx) ]

let run cfg =
  let reqs =
    Traffic.stream ~seed:cfg.seed ~mix:cfg.mix ~arrival:cfg.arrival
      ~count:cfg.count
  in
  Printf.printf "load: %d requests, mix %s, %s, %d worker(s), target %s\n%!"
    cfg.count
    (Traffic.mix_to_string cfg.mix)
    (Traffic.arrival_to_string cfg.arrival)
    (max 1 cfg.jobs)
    (match cfg.target with In_process -> "in-process" | Daemon s -> s);
  let o = replay cfg reqs in
  let all_idx = List.init (Array.length reqs) Fun.id in
  let by_kind k =
    List.filter (fun i -> reqs.(i).Traffic.kind = k) all_idx
  in
  let rows =
    slo_row "all" all_idx o
    :: List.filter_map
         (fun k ->
           match by_kind k with
           | [] -> None
           | idx -> Some (slo_row (Traffic.kind_to_string k) idx o))
         (Array.to_list Traffic.all_kinds)
  in
  let srows, speedup_ok, rank_speedup = speedup_rows ~seed:cfg.seed in
  let rows = rows @ srows in
  let ok_total = Array.fold_left (fun a s -> if s = 0 then a + 1 else a) 0 o.status in
  let errors = Array.fold_left (fun a s -> if s = 1 then a + 1 else a) 0 o.status in
  let timeouts = Array.fold_left (fun a s -> if s = 2 then a + 1 else a) 0 o.status in
  let dg = digest o.answers in
  let qps = float_of_int ok_total /. o.wall_s in
  List.iter
    (fun r ->
      match r with
      | Json.Obj fields ->
          let s k =
            match List.assoc_opt k fields with
            | Some (Json.String v) -> v
            | Some (Json.Int v) -> string_of_int v
            | Some (Json.Float v) -> Printf.sprintf "%.3f" v
            | Some (Json.Bool v) -> string_of_bool v
            | _ -> "-"
          in
          if List.mem_assoc "qps" fields then
            Printf.printf
              "  %-14s n=%-5s ok=%-5s err=%s tmo=%s qps=%-8s p50=%sms p95=%sms p99=%sms\n"
              (s "function") (s "requests") (s "ok") (s "errors") (s "timeouts")
              (s "qps") (s "p50_ms") (s "p95_ms") (s "p99_ms")
          else
            Printf.printf "  %-18s boards=%s scalar=%ss batch=%ss speedup=%sx agree=%s\n"
              (s "function") (s "boards") (s "scalar_s") (s "batch_s")
              (s "speedup") (s "agree")
      | _ -> ())
    rows;
  Printf.printf "  answers digest %s, wall %.3fs, %.1f qps\n%!" dg o.wall_s qps;
  let failed = errors + timeouts > 0 || not speedup_ok in
  (match cfg.json_dir with
  | None -> ()
  | Some dir ->
      Artifact.write ~dir ~id:"load" ~jobs:(max 1 cfg.jobs) ~wall_s:o.wall_s
        ~attempts:1
        ~status:(if failed then "failed" else "ok")
        ~error:
          (if failed then
             Json.String
               (Printf.sprintf "%d errors, %d timeouts, speedup_ok=%b" errors
                  timeouts speedup_ok)
           else Json.Null)
        ~report_fields:
          [ ("title", jstr "load replay: seeded traffic mix with latency SLOs");
            ( "params",
              Json.Obj
                [ ("seed", jint cfg.seed); ("count", jint cfg.count);
                  ("mix", jstr (Traffic.mix_to_string cfg.mix));
                  ("arrival", jstr (Traffic.arrival_to_string cfg.arrival));
                  ( "target",
                    jstr
                      (match cfg.target with
                      | In_process -> "in_process"
                      | Daemon _ -> "daemon") ) ] );
            ("rows", Json.List rows);
            ( "fits",
              Json.Obj
                [ ("qps", jfloat qps);
                  ("rank_batch_speedup", jfloat rank_speedup);
                  ("answers_digest", jstr dg) ] ) ]
        ();
      Printf.printf "wrote %s\n%!" (Artifact.path ~dir ~id:"load"));
  if failed then 1 else 0
