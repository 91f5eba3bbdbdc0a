(* The commx benchmark: four workloads against `ccmx serve` and the
   in-process exact-CC engine.  See perfbench/README.md for what each
   workload and metric is for; `python3 perfbench/run.py` builds and
   runs this program.

     main.exe --workload W --seed N --seconds S --trace 0|1
              --ccmx PATH --corpus FILE --out DIR
     main.exe corpus --out FILE      (regenerate the engine corpus)

   The last line of stdout is one JSON object: correct, attempted,
   failed and the metrics (end-to-end with --trace 0, per-layer with
   --trace 1). *)

module Json = Commx_util.Json
module Clock = Commx_util.Clock
module Prng = Commx_util.Prng
module Bm = Commx_util.Bitmat
module E = Commx_comm.Exact_cc
module Rank_bound = Commx_comm.Rank_bound
module Fooling = Commx_comm.Fooling
module Discrepancy = Commx_comm.Discrepancy
module Truth_matrix = Commx_comm.Truth_matrix
module Client = Commx_serve.Client
open Ccbench

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  ccmx : string;
  corpus : string;
  out : string;
}

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt
let us_of_ns ns = float_of_int ns /. 1e3
let p50 xs = Arith.percentile xs 50.0

(* ------------------------------------------------------------------ *)
(* Metric names (the same lists as BENCHMARK.json)                     *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [ ("qps", "1/s"); ("p50_ms", "ms"); ("p90_ms", "ms"); ("p99_ms", "ms");
    ("setup_s", "s"); ("peak_rss_mb", "MiB") ]

let ops = [ "exact_cc"; "singular"; "lower_bounds"; "protocol"; "rank_batch" ]

let per_layer =
  [ ("client.rtt_p50_us", "us"); ("client.rtt_p99_us", "us");
    ("wire.parse_us", "us"); ("wire.parse_alloc_words", "words");
    ("wire.request_bytes", "bytes"); ("wire.encode_us", "us");
    ("wire.reply_bytes", "bytes"); ("exact_cc.canonical_key_us", "us");
    ("exact_cc.canonical_dims_us", "us"); ("cache.key_us", "us");
    ("cache.tag_us", "us"); ("cache.find_us", "us"); ("cache.add_us", "us");
    ("cache.hit_ratio", "ratio"); ("cache.evictions", "count");
    ("table.hits", "count"); ("table.misses", "count") ]
  @ List.map (fun op -> ("server.op_p50_us." ^ op, "us")) ops
  @ [ ("server.queue_wait_p50_us", "us"); ("server.exec_p50_us", "us");
      ("server.reply_write_p50_us", "us"); ("server.residual_us", "us");
      ("server.cpu_us_per_req", "us") ]
  @ List.map (fun op -> ("kernel." ^ op ^ "_us", "us")) ops
  @ [ ("exact_cc.root_us", "us"); ("exact_cc.tree_us", "us");
      ("exact_cc.root_pruned_frac", "ratio"); ("exact_cc.nodes", "count");
      ("exact_cc.nodes_per_s", "1/s"); ("exact_cc.table_hit_ratio", "ratio");
      ("exact_cc.portfolio_us", "us"); ("lb.rank_fooling_us", "us");
      ("lb.log_rank_us", "us"); ("lb.discrepancy_us", "us");
      ("trace.overhead_frac", "ratio") ]

(* ------------------------------------------------------------------ *)
(* Outcome accounting                                                  *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable ok : int;  (* answered and checked correct *)
  mutable errors : int;  (* error replies, transport failures *)
  mutable timeouts : int;  (* client-side request timeouts *)
  mutable wrong : int;  (* answered, but not what the reference says *)
}

let tally () = { attempted = 0; ok = 0; errors = 0; timeouts = 0; wrong = 0 }
let failed t = t.errors + t.timeouts + t.wrong

let report o t ~metrics ~digest =
  log "%s seed %d: attempted %d, ok %d, errors %d, timeouts %d, wrong %d \
       (failed share %.4f), answers digest %s"
    o.workload o.seed t.attempted t.ok t.errors t.timeouts t.wrong
    (Arith.failure_share ~attempted:t.attempted ~failed:(failed t))
    digest;
  let names = if o.trace then per_layer else end_to_end in
  let value n = Option.value (List.assoc_opt n metrics) ~default:0.0 in
  List.iter
    (fun (n, u) -> Printf.printf "%-30s %16.6f %s\n" n (value n) u)
    names;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (t.wrong = 0));
            ("attempted", Json.Int t.attempted); ("failed", Json.Int (failed t));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, u) ->
                     ( n,
                       Json.Obj
                         [ ("value", Json.Float (value n)); ("unit", Json.String u) ]
                     ))
                   names) ) ]))


(* ------------------------------------------------------------------ *)
(* Serve workloads                                                     *)
(* ------------------------------------------------------------------ *)

type sent = {
  index : int;  (* which payload of the workload *)
  id : int;  (* its wire id on the load connection *)
  reply : Json.t option;
  t0_ns : int;
  dur_ns : int;
}

type serve_spec = {
  payload_of : int -> Gen.payload;
  op_of : int -> string;
  fields_of : int -> (string * Json.t) list;
  reference_of : int -> (string * Json.t) list;
  setup : (int -> unit) -> unit;
      (* the priming and warm-up requests, sent through the given
         one-request function *)
  next : unit -> int;  (* the payload index of the next timed request *)
  timeout_s : float;
  rss_at : int;  (* timed requests after which daemon VmHWM is read *)
}

let memo f =
  let h = Hashtbl.create 256 in
  fun i ->
    match Hashtbl.find_opt h i with
    | Some v -> v
    | None ->
        let v = f i in
        Hashtbl.replace h i v;
        v

let serve_spec o =
  match o.workload with
  | "serve-mix" ->
      let warmup = 1200 in
      let stream = Gen.mix_stream ~seed:o.seed ~count:(warmup + 200_000) in
      let payload_of i = Gen.mix_payload stream.(i) in
      let next = ref warmup in
      { payload_of;
        op_of = (fun i -> Commx_util.Traffic.kind_to_string stream.(i).kind);
        fields_of = (fun i -> Gen.fields (payload_of i));
        reference_of = memo (fun i -> Stage.reference (payload_of i));
        setup = (fun send -> for i = 0 to warmup - 1 do send i done);
        next =
          (fun () ->
            let i = !next in
            incr next;
            i);
        timeout_s = 10.0;
        rss_at = 10_000 }
  | "serve-hot" ->
      let set = Gen.hot_set ~seed:o.seed in
      let payload_of i = Gen.P_exact set.(i) in
      let fields_of = memo (fun i -> Gen.fields (payload_of i)) in
      let pick = Gen.hot_picker ~seed:o.seed in
      let warmup = 4000 in
      { payload_of; fields_of;
        op_of = (fun _ -> "exact_cc");
        reference_of = memo (fun i -> Stage.reference (payload_of i));
        setup =
          (fun send ->
            for i = 0 to Array.length set - 1 do send i done;
            for i = 0 to warmup - 1 do send (i mod Array.length set) done);
        next = pick;
        timeout_s = 10.0;
        rss_at = 10_000 }
  | "serve-batch" ->
      let warmup = 15 in
      let payload_of k = Gen.batch ~seed:o.seed k in
      let next = ref warmup in
      { payload_of;
        op_of = (fun _ -> "rank_batch");
        fields_of = (fun k -> Gen.fields (payload_of k));
        reference_of = (fun k -> Stage.reference (payload_of k));
        setup = (fun send -> for k = 0 to warmup - 1 do send k done);
        next =
          (fun () ->
            let k = !next in
            incr next;
            k);
        timeout_s = 30.0;
        rss_at = 200 }
  | w -> failwith ("unknown workload " ^ w)

(* The load connection: one process, one connection, one request in
   flight.  No retries, and a finite timeout, so a refused or slow
   request is counted as failed, never retried inside a latency. *)
type conn = { client : Client.t; mutable next_id : int; t : tally; spec : serve_spec }

let send c index =
  let fields = c.spec.fields_of index in
  let op = c.spec.op_of index in
  let id = c.next_id in
  c.next_id <- id + 1;
  c.t.attempted <- c.t.attempted + 1;
  let t0_ns = Clock.now_ns () in
  let res = Client.request c.client ~op fields in
  let dur_ns = Clock.now_ns () - t0_ns in
  let reply =
    match res with
    | Ok r -> Some r
    | Error (Client.Timed_out _) ->
        c.t.timeouts <- c.t.timeouts + 1;
        None
    | Error e ->
        c.t.errors <- c.t.errors + 1;
        log "request %d failed: %s" id (Client.error_to_string e);
        None
  in
  { index; id; reply; t0_ns; dur_ns }

type phase = { start_ns : int; end_ns : int; sent : sent array }

(* Closed loop until [seconds] have passed. *)
let drive c ~seconds ?(on_sent = fun _ -> ()) () =
  let start_ns = Clock.now_ns () in
  let deadline = start_ns + int_of_float (seconds *. 1e9) in
  let out = ref [] and n = ref 0 in
  while Clock.now_ns () < deadline do
    out := send c (c.spec.next ()) :: !out;
    incr n;
    on_sent !n
  done;
  { start_ns; end_ns = Clock.now_ns (); sent = Array.of_list (List.rev !out) }

(* Check every reply against the reference and count the outcome.
   Returns, in request order, each reference answer and whether the
   reply was answered correctly. *)
let verify spec t sent =
  Array.map
    (fun s ->
      match s.reply with
      | None -> ("", false)
      | Some reply ->
          let like = spec.reference_of s.index in
          let good = Stage.agrees ~like (spec.payload_of s.index) reply in
          if good then t.ok <- t.ok + 1
          else begin
            t.wrong <- t.wrong + 1;
            log "wrong answer to request %d: %s" s.id (Json.to_string reply)
          end;
          (Stage.answer like, good))
    sent

(* The tail metrics, and the percentile each one reads over [n]
   samples: as named when at least ten samples lie beyond it, otherwise
   the highest percentile that has ten beyond it, said on stderr.
   serve-batch (~230 requests) and engine-search (100 boards at 15 s) read
   p99_ms this way. *)
let tails = [ ("p50_ms", 50.0); ("p90_ms", 90.0); ("p99_ms", 99.0) ]

let read_at o ~n name p =
  match Arith.highest_supported ~n with
  | Some top when not (Arith.tail_supported ~n ~p) ->
      log "%s: %s over %d samples reads p%.2f, the highest with ten beyond it"
        o.workload name n top;
      top
  | _ -> p

(* End-to-end figures of a serve phase, over the correctly answered
   requests: qps and latency percentiles as medians over ten windows
   (see Arith), each percentile falling back to the whole phase when a
   window alone would hold fewer than ten samples beyond it. *)
let windows = 10

let phase_metrics o ~start_ns ~end_ns samples =
  let s ns = float_of_int ns /. 1e9 in
  let t0 = s start_ns and t1 = s end_ns in
  let n = Array.length samples in
  ( "qps", Arith.windowed_rate ~t0 ~t1 ~k:windows (Array.map (fun (e, _) -> s e) samples) )
  :: List.map
       (fun (name, p) ->
         ( name,
           Arith.windowed_percentile ~t0 ~t1 ~k:windows
             (Array.map (fun (e, ms) -> (s e, ms)) samples)
             (read_at o ~n name p) ))
       tails

(* Tracing overhead from the summed times of the same work done bare
   and traced: 1 - traced qps / untraced qps. *)
let overhead ~untraced_ns ~traced_ns =
  1.0 -. (float_of_int untraced_ns /. float_of_int (max 1 traced_ns))

(* Set-up is repeated [setups] times and reported as the median, so
   one slow start does not decide [setup_s]. *)
let setups = 3

(* Launch a daemon, connect, prime and warm it up; [setups] times over,
   each on a fresh daemon doing the same work.  The last one stays up
   for [f], which gets it, its load connection, the median set-up time
   and the set-up replies, one array per set-up. *)
let with_set_up o spec t f =
  let socket = Filename.concat o.out (Printf.sprintf "%s.sock" o.workload) in
  let log_path = Filename.concat o.out (Printf.sprintf "%s.daemon.log" o.workload) in
  let warms = ref [] and durations = ref [] in
  let rec go i =
    let t0 = Clock.now_s () in
    let d = Daemon.start ~ccmx:o.ccmx ~socket ~log:log_path in
    match
      let c =
        { client =
            Client.create ~retries:0 ~request_timeout_s:spec.timeout_s
              ~socket_path:socket ();
          next_id = 0; t; spec }
      in
      let warm = ref [] in
      spec.setup (fun idx -> warm := send c idx :: !warm);
      warms := Array.of_list (List.rev !warm) :: !warms;
      c
    with
    | exception e ->
        Daemon.stop d;
        raise e
    | c ->
        durations := (Clock.now_s () -. t0) :: !durations;
        if i = setups then (d, c)
        else begin
          Client.close c.client;
          Daemon.stop d;
          go (i + 1)
        end
  in
  let d, c = go 1 in
  Fun.protect
    ~finally:(fun () ->
      Client.close c.client;
      Daemon.stop d)
    (fun () -> f d c (p50 (Array.of_list !durations)) (List.rev !warms))

let serve_e2e o =
  let spec = serve_spec o in
  let t = tally () in
  let setup_s, rss_mb, timed, warm =
    with_set_up o spec t (fun d c setup_s warm ->
        let rss = ref None in
        let timed =
          drive c ~seconds:o.seconds
            ~on_sent:(fun n ->
              if n = spec.rss_at then
                rss := Some (Daemon.peak_rss_mb (string_of_int d.Daemon.pid)))
            ()
        in
        let rss =
          match !rss with
          | Some r -> r
          | None -> Daemon.peak_rss_mb (string_of_int d.Daemon.pid)
        in
        (setup_s, rss, timed, warm))
  in
  List.iter (fun w -> ignore (verify spec t w)) warm;
  let checked = verify spec t timed.sent in
  let samples =
    Array.of_list
      (List.filteri (fun i _ -> snd checked.(i))
         (Array.to_list
            (Array.map
               (fun s -> (s.t0_ns + s.dur_ns, float_of_int s.dur_ns /. 1e6))
               timed.sent)))
  in
  let metrics =
    phase_metrics o ~start_ns:timed.start_ns ~end_ns:timed.end_ns samples
    @ [ ("setup_s", setup_s); ("peak_rss_mb", rss_mb) ]
  in
  report o t ~metrics ~digest:(Arith.digest (Array.map fst checked))

(* ---- traced serve run ---- *)

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let stat_int path j =
  match member_path path j with Some (Json.Int v) -> v | _ -> 0

(* Server-side stage p50s from the flight recorder: each request is a
   root span with a queue_wait, a middle (exec, search or cache_hit)
   and a reply_write child. *)
let recorder_p50s dump =
  let events =
    match member_path [ "trace"; "traceEvents" ] dump with
    | Some (Json.List l) -> l
    | _ -> []
  in
  let durs name_ok =
    Array.of_list
      (List.filter_map
         (fun e ->
           match (Json.member "name" e, Json.member "dur" e) with
           | Some (Json.String n), Some (Json.Float d) when name_ok n -> Some d
           | _ -> None)
         events)
  in
  [ ("server.queue_wait_p50_us", p50 (durs (( = ) "queue_wait")));
    ( "server.exec_p50_us",
      p50 (durs (fun n -> List.mem n [ "exec"; "search"; "cache_hit"; "shed" ])) );
    ("server.reply_write_p50_us", p50 (durs (( = ) "reply_write"))) ]

(* p50 over requests [reqs] of a stage's self time, 0 where a request
   skipped the stage. *)
let stage_p50 spans reqs name =
  let by_req = Spans.self_ns_by_req spans name in
  p50
    (Array.of_list
       (List.map
          (fun r -> us_of_ns (Option.value (Hashtbl.find_opt by_req r) ~default:0))
          reqs))

(* p50 over only the requests that ran the stage (0 when none did). *)
let ran_p50 spans ?(over = fun _ -> true) name =
  let by_req = Spans.self_ns_by_req spans name in
  p50
    (Array.of_list
       (Hashtbl.fold
          (fun r ns acc -> if over r then us_of_ns ns :: acc else acc)
          by_req []))

(* Engine-layer timings of the given boards: canonicalize, the
   portfolio and each of its members' public functions. *)
let engine_layers spans boards =
  Array.iteri
    (fun req m ->
      let root = Spans.fresh_id spans in
      let t0 = Clock.now_ns () in
      let time name f = ignore (Spans.time spans ~req ~parent:root name f) in
      time "canonical_key" (fun () -> ignore (E.canonical_key m));
      time "canonical_dims" (fun () -> ignore (E.canonical_dims m));
      time "portfolio" (fun () -> ignore (E.lower_bound_portfolio m));
      time "lb.rank_fooling" (fun () ->
          let tm =
            Truth_matrix.build (List.init (Bm.rows m) Fun.id)
              (List.init (Bm.cols m) Fun.id) (fun i j -> Bm.get m i j)
          in
          ignore (Rank_bound.gf2_rank m);
          ignore (Rank_bound.gf2_rank (Bm.complement m));
          ignore (Fooling.greedy tm));
      time "lb.log_rank" (fun () ->
          ignore (Rank_bound.rational_rank m);
          ignore (Rank_bound.rational_rank (Bm.complement m)));
      time "lb.discrepancy" (fun () -> ignore (Discrepancy.discrepancy_exact m));
      Spans.push spans ~id:root ~req ~parent:0 ~name:"layers" ~start_ns:t0
        ~dur_ns:(Clock.now_ns () - t0))
    boards;
  let all = Spans.spans spans in
  let p name = ran_p50 all name in
  [ ("exact_cc.canonical_key_us", p "canonical_key");
    ("exact_cc.canonical_dims_us", p "canonical_dims");
    ("exact_cc.portfolio_us", p "portfolio");
    ("lb.rank_fooling_us", p "lb.rank_fooling");
    ("lb.log_rank_us", p "lb.log_rank");
    ("lb.discrepancy_us", p "lb.discrepancy") ]

(* Search statistics of (stats, search ns) pairs. *)
let search_metrics searches =
  let root = List.filter (fun ((st : E.stats), _) -> st.E.nodes = 0) searches in
  let tree = List.filter (fun ((st : E.stats), _) -> st.E.nodes > 0) searches in
  let us l = Array.of_list (List.map (fun (_, ns) -> us_of_ns ns) l) in
  let sum f = List.fold_left (fun a (st, _) -> a + f st) 0 searches in
  let nodes = sum (fun st -> st.E.nodes) in
  let tree_s = List.fold_left (fun a (_, ns) -> a +. (float_of_int ns /. 1e9)) 0.0 tree in
  let hits = sum (fun st -> st.E.table_hits) and misses = sum (fun st -> st.E.table_misses) in
  [ ("exact_cc.root_us", p50 (us root)); ("exact_cc.tree_us", p50 (us tree));
    ( "exact_cc.root_pruned_frac",
      Arith.ratio (List.length root) (List.length searches) );
    ("exact_cc.nodes", float_of_int nodes);
    ("exact_cc.nodes_per_s", if tree_s > 0.0 then float_of_int nodes /. tree_s else 0.0);
    ("exact_cc.table_hit_ratio", Arith.ratio hits (hits + misses)) ]

let write_trace o spans =
  let path =
    Filename.concat o.out (Printf.sprintf "trace-%s-%d.json" o.workload o.seed)
  in
  Json.to_file ~path (Spans.to_chrome spans);
  log "spans written to %s" path

(* The traced run: one phase of 0.6 x [--seconds] against the daemon,
   with a client span per request and the daemon's counters, CPU time
   and flight recorder read around it.  Then the same lines in process
   through [Stage.handle], on two pipelines fed the same requests: one
   bare, one recording a span per stage.  Each request runs on both, in
   alternating order, so their time ratio is what recording the stages
   costs: the tracing overhead. *)
let serve_traced o =
  let spec = serve_spec o in
  let t = tally () in
  let client_spans = Spans.create () in
  let warms, ph, s0, s1, cpu_ticks, dump =
    with_set_up o spec t (fun d c _ warms ->
        let s0 = Daemon.stats d and c0 = Daemon.cpu_ticks d.Daemon.pid in
        let ph = drive c ~seconds:(o.seconds *. 0.6) () in
        let cpu = Daemon.cpu_ticks d.Daemon.pid - c0 in
        let s1 = Daemon.stats d in
        (warms, ph, s0, s1, cpu, Daemon.dump_trace d))
  in
  let delta path = stat_int path s1 - stat_int path s0 in
  let sent_t = ph.sent in
  List.iter (fun w -> ignore (verify spec t w)) warms;
  let answers = Array.map fst (verify spec t sent_t) in
  let n_t = Array.length sent_t in
  Array.iteri
    (fun req s ->
      ignore
        (Spans.add client_spans ~req ~parent:0 ~name:"client.request"
           ~start_ns:s.t0_ns ~dur_ns:s.dur_ns))
    sent_t;
  (* In process: the requests the last daemon saw after its set-up, in
     order, with the exact lines and ids sent. *)
  let bare = Stage.pipeline () and p = Stage.pipeline () in
  let replay pipe ~record ~req s =
    let payload = spec.payload_of s.index in
    let line = Gen.line ~id:s.id payload in
    let t0 = Clock.now_ns () in
    let reply = Stage.handle pipe ~record ~req line in
    let ns = Clock.now_ns () - t0 in
    if not (Stage.agrees ~like:(spec.reference_of s.index) payload (Json.of_string reply))
    then begin
      t.wrong <- t.wrong + 1;
      log "in-process pipeline disagrees with the reference on request %d" s.id
    end;
    (String.length line, String.length reply, ns)
  in
  Array.iter
    (fun s ->
      ignore (replay bare ~record:false ~req:(-1) s);
      ignore (replay p ~record:false ~req:(-1) s))
    (List.nth warms (setups - 1));
  let bytes_req = Array.make n_t 0.0 and bytes_reply = Array.make n_t 0.0 in
  let bare_ns = ref 0 and traced_ns = ref 0 in
  Array.iteri
    (fun req s ->
      let run_bare () =
        let _, _, ns = replay bare ~record:false ~req s in
        bare_ns := !bare_ns + ns
      in
      let run_traced () =
        let lq, lr, ns = replay p ~record:true ~req s in
        bytes_req.(req) <- float_of_int lq;
        bytes_reply.(req) <- float_of_int lr;
        traced_ns := !traced_ns + ns
      in
      if req mod 2 = 0 then (run_bare (); run_traced ())
      else (run_traced (); run_bare ()))
    sent_t;
  let spans = Spans.spans p.Stage.spans in
  let reqs = List.init n_t Fun.id in
  let op_of req = spec.op_of sent_t.(req).index in
  let is_exact req = op_of req = "exact_cc" in
  let rtt_us =
    Array.of_list
      (List.filter_map
         (fun s -> Option.map (fun _ -> us_of_ns s.dur_ns) s.reply)
         (Array.to_list sent_t))
  in
  let rtt_p50 = p50 rtt_us in
  let stages = [ "parse"; "key"; "admission"; "tag"; "find"; "kernel"; "add"; "encode" ] in
  let stage_p50s = List.map (stage_p50 spans reqs) stages in
  let words = Array.of_list p.Stage.parse_words in
  let hits = delta [ "result_cache"; "hits" ] and misses = delta [ "result_cache"; "misses" ] in
  let op_p50 op =
    match member_path [ "ops"; op; "p50_us" ] s1 with
    | Some (Json.Float v) -> v
    | _ -> 0.0
  in
  let exact_boards =
    Array.of_list
      (List.filter_map
         (fun s ->
           if spec.op_of s.index <> "exact_cc" then None
           else
             match spec.payload_of s.index with
             | Gen.P_exact m -> Some m
             | _ -> None)
         (Array.to_list (Array.sub sent_t 0 (min n_t 32))))
  in
  let searches = List.of_seq (Seq.map (fun (_, st, ns) -> (st, ns)) (Queue.to_seq p.Stage.search_stats)) in
  let metrics =
    [ ("client.rtt_p50_us", rtt_p50);
      ("client.rtt_p99_us", Arith.percentile rtt_us 99.0);
      ("wire.parse_us", stage_p50 spans reqs "parse");
      ("wire.parse_alloc_words", p50 words);
      ("wire.request_bytes", p50 bytes_req);
      ("wire.encode_us", stage_p50 spans reqs "encode");
      ("wire.reply_bytes", p50 bytes_reply);
      ("cache.key_us", stage_p50 spans reqs "key");
      ("cache.tag_us", ran_p50 spans ~over:is_exact "tag");
      ("cache.find_us", stage_p50 spans reqs "find");
      ("cache.add_us", ran_p50 spans "add");
      ("cache.hit_ratio", Arith.ratio hits (hits + misses));
      ("cache.evictions", float_of_int (delta [ "result_cache"; "evictions" ]));
      ("table.hits", float_of_int (delta [ "table"; "hits" ]));
      ("table.misses", float_of_int (delta [ "table"; "misses" ])) ]
    @ List.map (fun op -> ("server.op_p50_us." ^ op, op_p50 op)) ops
    @ recorder_p50s dump
    @ [ ("server.residual_us", Arith.residual ~total:rtt_p50 ~stages:stage_p50s);
        ( "server.cpu_us_per_req",
          float_of_int cpu_ticks /. Daemon.ticks_per_s *. 1e6 /. float_of_int (max 1 n_t) ) ]
    @ List.map
        (fun op -> ("kernel." ^ op ^ "_us", ran_p50 spans ~over:(fun r -> op_of r = op) "kernel"))
        ops
    @ search_metrics searches
    @ [ ("trace.overhead_frac", overhead ~untraced_ns:!bare_ns ~traced_ns:!traced_ns) ]
  in
  (* The engine layers on the workload's own boards, except that
     canonicalization is read as the daemon's key and admission stages
     ran it. *)
  let layer_spans = Spans.create () in
  let canonical =
    [ ("exact_cc.canonical_key_us", ran_p50 spans ~over:is_exact "key");
      ("exact_cc.canonical_dims_us", ran_p50 spans "admission") ]
  in
  let metrics =
    metrics
    @ List.map
        (fun (n, v) -> (n, Option.value (List.assoc_opt n canonical) ~default:v))
        (engine_layers layer_spans exact_boards)
  in
  write_trace o (Spans.spans client_spans @ spans @ Spans.spans layer_spans);
  report o t ~metrics ~digest:(Arith.digest answers)

(* ------------------------------------------------------------------ *)
(* engine-search                                                       *)
(* ------------------------------------------------------------------ *)

let load_corpus o =
  Gen.parse_corpus (In_channel.with_open_bin o.corpus In_channel.input_all)

(* Search one board on a fresh table and check the value: within the
   certified root bounds, and equal to its corpus value. *)
let search_board t (c : Gen.corpus_board) =
  t.attempted <- t.attempted + 1;
  let t0 = Clock.now_ns () in
  let v, st = E.search c.Gen.board in
  let ns = Clock.now_ns () - t0 in
  if st.E.root_lower <= v && v <= st.E.root_upper && v = c.Gen.cc then t.ok <- t.ok + 1
  else begin
    t.wrong <- t.wrong + 1;
    log "wrong engine value %d (corpus %d, root bounds %d..%d)" v c.Gen.cc
      st.E.root_lower st.E.root_upper
  end;
  (v, st, ns)

(* Engine set-up, the same work for every seed: load the classified
   corpus and search its first searching board as stored (not
   relabeled), a fixed warm-up of about a second.  Repeated [setups]
   times; [setup_s] is the median.  Returns the run's board stream. *)
let engine_set_up o =
  let once () =
    let t0 = Clock.now_s () in
    let corpus = load_corpus o in
    ignore (E.search (List.find (fun c -> c.Gen.path = Gen.Search) corpus).Gen.board);
    (Clock.now_s () -. t0, corpus)
  in
  let runs = List.init setups (fun _ -> once ()) in
  ( p50 (Array.of_list (List.map fst runs)),
    Gen.engine_stream ~seed:o.seed (snd (List.hd runs)) )

(* The timed phase is a fixed number of whole blocks, one per
   [block_s] of [--seconds] (the time a block takes on the reference
   host) and at least five.  Every run then weighs the three board paths
   alike and holds the same number of boards, whatever the host's speed:
   at least 100, which put ten beyond p90.  qps is boards per second of
   the phase; the percentiles are over all its boards, with the tail
   rule of the serve workloads. *)
let block_s = 3.0

let engine_e2e o =
  let setup_s, board = engine_set_up o in
  let t = tally () in
  let n = max 5 (int_of_float (o.seconds /. block_s)) * Gen.block in
  let start_ns = Clock.now_ns () in
  let values = Array.make n "" in
  let lat_ms =
    Array.init n (fun i ->
        let v, _, ns = search_board t (board i) in
        values.(i) <- string_of_int v;
        float_of_int ns /. 1e6)
  in
  let elapsed = float_of_int (Clock.now_ns () - start_ns) /. 1e9 in
  let metrics =
    [ ("qps", float_of_int n /. elapsed) ]
    @ List.map
        (fun (name, p) -> (name, Arith.percentile lat_ms (read_at o ~n name p)))
        tails
    @ [ ("setup_s", setup_s); ("peak_rss_mb", Daemon.peak_rss_mb "self") ]
  in
  report o t ~metrics ~digest:(Arith.digest values)

(* A fixed number of blocks, so node counts repeat exactly per seed.
   Each board is searched twice, bare and inside a span, in alternating
   order.  The tracing overhead is the median over boards of each
   board's own overhead: a sum would be decided by how fast the host
   ran during the few searching boards. *)
let engine_traced o =
  let _, board = engine_set_up o in
  let blocks = max 1 (int_of_float o.seconds / 10) in
  let boards = Array.init (blocks * Gen.block) board in
  let t = tally () in
  let spans = Spans.create () in
  let timed f =
    let t0 = Clock.now_ns () in
    let r = f () in
    (r, Clock.now_ns () - t0)
  in
  let runs =
    Array.mapi
      (fun req b ->
        let untraced () = snd (timed (fun () -> search_board t b)) in
        let traced () =
          timed (fun () -> Spans.time spans ~req ~parent:0 "search" (fun () -> search_board t b))
        in
        if req mod 2 = 0 then
          let untraced_ns = untraced () in
          let r, traced_ns = traced () in
          (r, overhead ~untraced_ns ~traced_ns)
        else
          let r, traced_ns = traced () in
          (r, overhead ~untraced_ns:(untraced ()) ~traced_ns))
      boards
  in
  let searched = Array.map fst runs in
  let searches = Array.to_list (Array.map (fun (_, st, ns) -> (st, ns)) searched) in
  let layer_spans = Spans.create () in
  let metrics =
    search_metrics searches
    @ engine_layers layer_spans (Array.map (fun b -> b.Gen.board) boards)
    @ [ ( "kernel.exact_cc_us",
          p50 (Array.of_list (List.map (fun (_, ns) -> us_of_ns ns) searches)) );
        ("trace.overhead_frac", p50 (Array.map snd runs)) ]
  in
  write_trace o (Spans.spans spans @ Spans.spans layer_spans);
  report o t ~metrics
    ~digest:(Arith.digest (Array.map (fun (v, _, _) -> string_of_int v) searched))

(* ------------------------------------------------------------------ *)
(* Corpus generation                                                   *)
(* ------------------------------------------------------------------ *)

(* Draw random boards from a fixed seed, classify each by the path that
   decides it and keep the first [Gen.corpus_size] of each path, with
   the value the search returns.  The header records how often each
   path came up among all the boards drawn: the natural shares. *)
let corpus_seed = 20_891

let write_corpus path =
  let g = Prng.create corpus_seed in
  let paths = [ Gen.Rank_fooling; Gen.Log_rank; Gen.Search ] in
  let kept = Hashtbl.create 3 and seen = Hashtbl.create 3 in
  let get h p = Option.value (Hashtbl.find_opt h p) ~default:[] in
  let full p = List.length (get kept p) >= Gen.corpus_size p in
  let drawn = ref 0 in
  while not (List.for_all full paths) do
    let m = Bm.random g Gen.engine_side Gen.engine_side in
    incr drawn;
    let p = Stage.root_path m in
    Hashtbl.replace seen p (() :: get seen p);
    if not (full p) then begin
      let v, st = E.search m in
      Hashtbl.replace kept p ({ Gen.path = p; cc = v; nodes = st.E.nodes; board = m } :: get kept p)
    end
  done;
  let oc = open_out path in
  let share p = 100.0 *. float_of_int (List.length (get seen p)) /. float_of_int !drawn in
  Printf.fprintf oc
    "# engine-search corpus: random %dx%d density-1/2 boards, classified by\n\
     # the path that decides them.  Drawn with Bitmat.random from Prng seed %d;\n\
     # of the %d boards drawn, %.1f%% settled on rank/fooling, %.1f%% on\n\
     # log-rank and %.1f%% searched.  Regenerate with: main.exe corpus --out FILE\n\
     # columns: path, exact CC, search nodes as stored, rows\n"
    Gen.engine_side Gen.engine_side corpus_seed !drawn (share Gen.Rank_fooling)
    (share Gen.Log_rank) (share Gen.Search);
  List.iter
    (fun p -> List.iter (fun c -> output_string oc (Gen.corpus_line c ^ "\n")) (List.rev (get kept p)))
    paths;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-mix|serve-hot|serve-batch|engine-search \
     --seed N --seconds S --trace 0|1 --ccmx PATH --corpus FILE --out DIR\n\
    \       main.exe corpus --out FILE";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec kv acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        kv ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | "corpus" :: rest -> (
      match List.assoc_opt "out" (kv [] rest) with
      | Some path -> write_corpus path
      | None -> usage ())
  | _ -> (
      let a = kv [] args in
      let get k = match List.assoc_opt k a with Some v -> v | None -> usage () in
      let o =
        { workload = get "workload"; seed = int_of_string (get "seed");
          seconds = float_of_string (get "seconds");
          trace =
            (match get "trace" with "0" -> false | "1" -> true | _ -> usage ());
          ccmx = get "ccmx"; corpus = get "corpus"; out = get "out" }
      in
      if o.seconds <= 0.0 then usage ();
      (try Unix.mkdir o.out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      match (o.workload, o.trace) with
      | "engine-search", false -> engine_e2e o
      | "engine-search", true -> engine_traced o
      | ("serve-mix" | "serve-hot" | "serve-batch"), false -> serve_e2e o
      | ("serve-mix" | "serve-hot" | "serve-batch"), true -> serve_traced o
      | _ -> usage ())
