(* The serve daemon.  Concurrency layout:

     acceptor (caller's domain)
       select loop: accept / read lines / parse
       ping, stats, shutdown answered inline
       compute ops -> worker queues (affinity: table tag mod workers)
     worker domains (one Txtable segment each)
       pop job, result-cache lookup, else compute, deliver reply

   Locks, leaf-only and never nested with each other:
     conn.cm     sequence numbers, pending replies, inflight count
     worker.qm   job queue + published table stats
     latm        latency ring
     (Cache and Tags carry their own internal mutexes.)

   Replies are written by whichever worker finishes the job, but
   strictly in per-connection request order: a finished reply parks in
   [conn.pending] until every lower sequence number has been written.
   A failed write (client gone: EPIPE/ECONNRESET) marks the connection
   dead and drops its parked replies — one lost client never unsettles
   the daemon or other connections. *)

module Json = Commx_util.Json
module Bm = Commx_util.Bitmat
module Tx = Commx_util.Txtable
module Clock = Commx_util.Clock
module Telemetry = Commx_util.Telemetry
module Stats = Commx_util.Stats
module Sigguard = Commx_util.Sigguard
module Logging = Commx_util.Logging
module Prng = Commx_util.Prng
module Pool = Commx_util.Pool
module Faults = Commx_util.Faults
module Zm = Commx_linalg.Zmatrix
module B = Commx_bigint.Bigint
module Params = Commx_core.Params
module H = Commx_core.Hard_instance
module L32 = Commx_core.Lemma32
module Bounds = Commx_core.Bounds
module E = Commx_comm.Exact_cc
module Protocol = Commx_comm.Protocol
module Truth_matrix = Commx_comm.Truth_matrix
module Rank_bound = Commx_comm.Rank_bound
module Halves = Commx_protocols.Halves
module Trivial = Commx_protocols.Trivial
module Fingerprint = Commx_protocols.Fingerprint

type config = {
  socket_path : string;
  workers : int;
  snapshot_path : string option;
  cache_capacity : int;
  table_budget : int option;
  max_queue : int;
  drain_timeout_s : float;
  request_timeout_s : float option;
  write_timeout_s : float;
  max_line_bytes : int;
  snapshot_every_s : float option;
  respawn_budget : int;
  respawn_window_s : float;
  chaos : Faults.t option;
  logger : Logging.t;
  metrics_socket : string option;
  metrics_port : int option;
  slow_ms : float option;
  trace_ring : int;
  trace_dump_path : string option;
}

exception Fatal of string

let () =
  Printexc.register_printer (function
    | Fatal msg -> Some (Printf.sprintf "Server.Fatal(%s)" msg)
    | _ -> None)

let protocol_version = 1
let snapshot_format = "ccmx-serve-snapshot"

(* v2: Exact_cc.max_side went 16 -> 20, which moves the column masks
   and the tag salt within packed table keys — v1 segment entries
   would decode to different subproblems, so old snapshots must not
   load.  v3: content keys render rows as packed-word hex, not one
   character per cell — v2 cache and tag keys would never match a
   request again, so a v2 file is rejected whole. *)
let snapshot_version = 3

let config ~socket_path ?(workers = 2) ?snapshot_path ?(cache_capacity = 1024)
    ?table_budget ?(max_queue = 64) ?(drain_timeout_s = 30.0)
    ?request_timeout_s ?(write_timeout_s = 5.0)
    ?(max_line_bytes = 1 lsl 20) ?snapshot_every_s ?(respawn_budget = 3)
    ?(respawn_window_s = 60.0) ?chaos ?logger ?metrics_socket ?metrics_port
    ?slow_ms ?(trace_ring = 256) ?trace_dump_path () =
  let logger =
    match logger with Some l -> l | None -> Logging.create ()
  in
  if workers < 1 then invalid_arg "Server.config: workers < 1";
  if cache_capacity < 1 then invalid_arg "Server.config: cache_capacity < 1";
  if max_queue < 1 then invalid_arg "Server.config: max_queue < 1";
  (match table_budget with
  | Some b when b < 1 -> invalid_arg "Server.config: table_budget < 1"
  | _ -> ());
  (match request_timeout_s with
  | Some s when s <= 0.0 ->
      invalid_arg "Server.config: request_timeout_s must be > 0"
  | _ -> ());
  if write_timeout_s <= 0.0 then
    invalid_arg "Server.config: write_timeout_s must be > 0";
  if max_line_bytes < 1024 then
    invalid_arg "Server.config: max_line_bytes must be >= 1024";
  (match snapshot_every_s with
  | Some s when s <= 0.0 ->
      invalid_arg "Server.config: snapshot_every_s must be > 0"
  | _ -> ());
  if respawn_budget < 0 then
    invalid_arg "Server.config: respawn_budget must be >= 0";
  if respawn_window_s <= 0.0 then
    invalid_arg "Server.config: respawn_window_s must be > 0";
  (match metrics_port with
  | Some p when p < 1 || p > 65535 ->
      invalid_arg "Server.config: metrics_port out of range"
  | _ -> ());
  (match slow_ms with
  | Some ms when ms < 0.0 ->
      invalid_arg "Server.config: slow_ms must be >= 0"
  | _ -> ());
  if trace_ring < 0 then
    invalid_arg "Server.config: trace_ring must be >= 0";
  { socket_path; workers; snapshot_path; cache_capacity; table_budget;
    max_queue; drain_timeout_s; request_timeout_s; write_timeout_s;
    max_line_bytes; snapshot_every_s; respawn_budget; respawn_window_s;
    chaos; logger; metrics_socket; metrics_port; slow_ms; trace_ring;
    trace_dump_path }

(* Robustness counters.  Interned process-wide, so they flow into the
   stats reply's "counters" object like every other telemetry counter;
   tests and the chaos soak read them there. *)
let c_overloaded = Telemetry.counter "serve.overloaded"
let c_crashes = Telemetry.counter "serve.worker_crashes"
let c_respawns = Telemetry.counter "serve.worker_respawns"
let c_timeouts = Telemetry.counter "serve.deadline_timeouts"
let c_snapshots = Telemetry.counter "serve.snapshots_written"
let c_oversized = Telemetry.counter "serve.oversized_lines"
let c_too_large = Telemetry.counter "serve.too_large"
let c_write_timeouts = Telemetry.counter "serve.write_timeouts"
let c_chaos_cache = Telemetry.counter "serve.chaos_cache_skips"
let c_chaos_snapshot = Telemetry.counter "serve.chaos_snapshot_skips"
let c_slow = Telemetry.counter "serve.slow_queries"

(* ------------------------------------------------------------------ *)
(* Connections and jobs                                                *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  cid : int;
  rbuf : Buffer.t;
  cm : Mutex.t;
  mutable next_seq : int;  (* next sequence number to hand out *)
  mutable next_write : int;  (* next sequence number to put on the wire *)
  pending : (int, string) Hashtbl.t;  (* finished out-of-order replies *)
  mutable write_ok : bool;
  mutable eof : bool;
  mutable discarding : bool;  (* skipping the rest of an oversized line *)
  mutable inflight : int;
}

type job = {
  env : Wire.envelope;
  jconn : conn;
  seq : int;
  t0 : float;
  t0_ns : int;  (* same instant as [t0], for flight-recorder spans *)
  deadline : float option;  (* absolute monotonic compute deadline *)
  tag : int option;  (* exact-CC table tag *)
  cache_key : string option;
  use_cache : bool;
}

type worker = {
  wid : int;
  table : Tx.t;
  tm : Mutex.t;  (* table access: compute vs. periodic snapshot *)
  q : job Queue.t;
  qm : Mutex.t;
  qc : Condition.t;
  mutable queued : int;
  mutable current : job option;  (* in flight, for crash reporting *)
  mutable cur_cancel : Pool.Token.t option;  (* to unstick a drain *)
  mutable alive : bool;  (* false once the domain body has exited *)
  mutable jobs_done : int;  (* chaos site numbering, survives respawn *)
  mutable pub_stats : Tx.stats;  (* published for the stats op *)
  mutable pub_entries : int;
}

let latency_ring = 4096

type t = {
  cfg : config;
  stop : bool Atomic.t;
  cache : Cache.t;
  tags : Cache.Tags.t;
  workers : worker array;
  latm : Mutex.t;
  lat : float array;  (* seconds, ring buffer *)
  mutable lat_n : int;  (* total observations ever *)
  requests : int Atomic.t;
  errors : int Atomic.t;
  started : float;
  hist : Telemetry.histogram;
  recorder : Obs.Recorder.t;
  mutable last_snapshot : float;  (* monotonic, acceptor-only *)
}

(* ------------------------------------------------------------------ *)
(* Socket writes                                                       *)
(* ------------------------------------------------------------------ *)

(* A reply write that cannot finish before [deadline] — the client
   stopped reading (slowloris) while our socket buffer filled — is a
   dead connection, not a stalled worker. *)
exception Write_timeout

(* Connection fds are nonblocking: a full socket buffer surfaces as
   EAGAIN, and the write waits for writability only up to the
   deadline instead of parking the writing domain forever. *)
let rec write_all fd b pos len ~deadline =
  if len > 0 then
    match Unix.write fd b pos len with
    | n -> write_all fd b (pos + n) (len - n) ~deadline
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        write_all fd b pos len ~deadline
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        let remain = deadline -. Clock.now_s () in
        if remain <= 0.0 then begin
          Telemetry.incr c_write_timeouts;
          raise Write_timeout
        end
        else begin
          (match Unix.select [] [ fd ] [] remain with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | _ -> ());
          write_all fd b pos len ~deadline
        end

let is_write_failure = function
  | Unix.Unix_error _ | Write_timeout -> true
  | e -> Sigguard.is_broken_pipe e

(* Park the reply under its sequence number, then put every
   consecutive ready reply on the wire.  [finish] marks the job as no
   longer in flight (same critical section, so the reaper never sees a
   reply-less idle connection). *)
let deliver t ?(finish = false) conn seq line =
  Mutex.lock conn.cm;
  if finish then conn.inflight <- conn.inflight - 1;
  if conn.write_ok then begin
    Hashtbl.replace conn.pending seq line;
    let deadline = Clock.now_s () +. t.cfg.write_timeout_s in
    try
      let rec flush () =
        match Hashtbl.find_opt conn.pending conn.next_write with
        | Some s ->
            Hashtbl.remove conn.pending conn.next_write;
            let b = Bytes.of_string s in
            write_all conn.fd b 0 (Bytes.length b) ~deadline;
            conn.next_write <- conn.next_write + 1;
            flush ()
        | None -> ()
      in
      flush ()
    with e when is_write_failure e ->
      conn.write_ok <- false;
      Hashtbl.reset conn.pending;
      Logging.info t.cfg.logger
        ~fields:[ ("conn", Json.Int conn.cid) ]
        (Printf.sprintf "conn %d: client gone (%s), dropping its replies"
           conn.cid (Printexc.to_string e))
  end;
  Mutex.unlock conn.cm

let alloc_seq ?(inflight = false) conn =
  Mutex.lock conn.cm;
  let s = conn.next_seq in
  conn.next_seq <- s + 1;
  if inflight then conn.inflight <- conn.inflight + 1;
  Mutex.unlock conn.cm;
  s

let record_latency t dt =
  Mutex.lock t.latm;
  t.lat.(t.lat_n mod latency_ring) <- dt;
  t.lat_n <- t.lat_n + 1;
  Mutex.unlock t.latm;
  Telemetry.observe t.hist (int_of_float (dt *. 1e6))

(* ------------------------------------------------------------------ *)
(* Content keys                                                        *)
(* ------------------------------------------------------------------ *)

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
  | Wire.Ping | Wire.Stats | Wire.Shutdown | Wire.Dump_trace -> None
  | Wire.Exact_cc { matrix; _ } ->
      (* Canonical, not literal: structurally equal boards alias. *)
      Some ("exact_cc:" ^ E.canonical_key matrix)
  | Wire.Singular { matrix } -> Some ("singular:" ^ zmatrix_key matrix)
  | Wire.Lemma32 { n; k; seed } ->
      Some (Printf.sprintf "lemma32:%d:%d:%d" n k seed)
  | Wire.Lower_bounds { matrix } -> Some ("lower_bounds:" ^ Bm.key matrix)
  | Wire.Protocol_run { proto; n; k; seed; epsilon } ->
      Some (Printf.sprintf "protocol:%s:%d:%d:%d:%h" proto n k seed epsilon)
  | Wire.Rank_batch { matrices } ->
      Some
        ("rank_batch:"
        ^ String.concat "|"
            (Array.to_list (Array.map Bm.key matrices)))

(* ------------------------------------------------------------------ *)
(* Compute handlers (worker side)                                      *)
(* ------------------------------------------------------------------ *)

let require_params ~n ~k =
  if not (Params.is_valid ~n ~k) then
    failwith (Printf.sprintf "invalid parameters n=%d k=%d" n k);
  Params.make ~n ~k

(* Each handler returns (cacheable result fields, per-request fields).
   Only the former go into the result cache; a cache hit re-serves them
   with fresh per-request fields. *)
let exec w (env : Wire.envelope) ~tag ~cancel =
  match env.req with
  | Wire.Ping | Wire.Stats | Wire.Shutdown | Wire.Dump_trace ->
      (* Answered inline by the acceptor; never queued. *)
      assert false
  | Wire.Exact_cc { matrix; _ } ->
      let key_tag = Option.value tag ~default:0 in
      let v, st = E.search ~table:w.table ~key_tag ?cancel matrix in
      ( [ ("value", Json.Int v);
          ("canon_rows", Json.Int st.E.canon_rows);
          ("canon_cols", Json.Int st.E.canon_cols);
          ("root_lower", Json.Int st.E.root_lower);
          ("root_upper", Json.Int st.E.root_upper) ],
        [ ("nodes", Json.Int st.E.nodes);
          ("table_hits", Json.Int st.E.table_hits);
          ("table_misses", Json.Int st.E.table_misses) ] )
  | Wire.Singular { matrix } ->
      if not (Zm.is_square matrix) then failwith "matrix is not square";
      let d, rank = Zm.det_rank matrix in
      ( [ ("dimension", Json.Int (Zm.rows matrix));
          ("rank", Json.Int rank);
          ("det", Json.String (B.to_string d));
          ("singular", Json.Bool (B.is_zero d)) ],
        [] )
  | Wire.Lemma32 { n; k; seed } ->
      let p = require_params ~n ~k in
      let g = Prng.create seed in
      let f = H.random_free g p in
      let crit = L32.criterion p f in
      let direct = L32.is_singular_direct (H.build_m p f) in
      ( [ ("criterion", Json.Bool crit);
          ("direct", Json.Bool direct);
          ("agrees", Json.Bool (crit = direct)) ],
        [] )
  | Wire.Lower_bounds { matrix } ->
      let nr = Bm.rows matrix and nc = Bm.cols matrix in
      let tm = Truth_matrix.of_bitmat matrix in
      (* The exact rectangle-cover bound enumerates covers; keep it to
         boards small enough that it cannot stall a worker. *)
      let r = Rank_bound.analyze tm ~exact_rect:(nr * nc <= 64) in
      ( [ ("gf2_rank", Json.Int r.Rank_bound.gf2);
          ("rational_rank", Json.Int r.Rank_bound.rational);
          ("log_rank_bits", Json.Float r.Rank_bound.log_rank);
          ("fooling_set", Json.Int r.Rank_bound.fooling);
          ("fooling_bits", Json.Float r.Rank_bound.fooling_bits);
          ("cover_bits", Json.Float r.Rank_bound.cover_bits);
          ("trivial_upper_bits", Json.Float r.Rank_bound.trivial_upper) ],
        [] )
  | Wire.Protocol_run { proto; n; k; seed; epsilon } ->
      let p = require_params ~n ~k in
      let g = Prng.create seed in
      let m = H.build_m p (H.random_free g p) in
      let alice, bob = Halves.split_pi0 m in
      let truth = Zm.is_singular m in
      let got, bits =
        match proto with
        | "trivial" -> Protocol.execute (Trivial.singularity ~k) alice bob
        | "fingerprint" ->
            let rp = Fingerprint.singularity ~n ~k ~epsilon in
            Protocol.execute
              (rp.Commx_comm.Randomized.run_seeded ~seed:(seed + 1))
              alice bob
        | other -> failwith (Printf.sprintf "unknown protocol %S" other)
      in
      ( [ ("protocol", Json.String proto);
          ("answer", Json.Bool got);
          ("truth", Json.Bool truth);
          ("agrees", Json.Bool (got = truth));
          ("bits", Json.Int bits);
          ("trivial_upper_bits", Json.Int (Bounds.trivial_upper_bits ~n ~k)) ],
        [] )
  | Wire.Rank_batch { matrices } ->
      let ranks = Bm.rank_batch matrices in
      ( [ ( "values",
            Json.List (Array.to_list (Array.map (fun v -> Json.Int v) ranks))
          );
          ("count", Json.Int (Array.length ranks)) ],
        [] )

let wall_us_field t0 =
  ("wall_us", Json.Int (int_of_float ((Clock.now_s () -. t0) *. 1e6)))

(* Chaos site on result-cache insertion: the result is already
   computed, so an injected fault here is contained — the entry is
   skipped (cold next time), the reply unaffected. *)
let cache_insert t job core =
  match job.cache_key with
  | None -> ()
  | Some key -> (
      match
        Faults.point t.cfg.chaos ~site:("serve:cache:" ^ key);
        Cache.add t.cache key (Json.Obj core)
      with
      | () -> ()
      | exception Faults.Injected site ->
          Telemetry.incr c_chaos_cache;
          Logging.warn t.cfg.logger
            (Printf.sprintf "chaos: cache insertion dropped at %s" site))

(* A reply's diagnostic integer ("nodes", "lower_bound", ...), when
   the handler produced one — for the slow-query log and trace spans,
   which must not care WHICH arm built the reply. *)
let reply_int reply key =
  match Json.member key reply with Some (Json.Int v) -> Some v | _ -> None

(* One line per slow request, at warn so the default logger shows it:
   the canonical key tag, search effort and certified bounds of the
   exact request that blew the budget, greppable as msg="slow_query". *)
let slow_query_log t job ~outcome ~wall reply =
  match t.cfg.slow_ms with
  | Some ms when wall *. 1000.0 > ms ->
      Telemetry.incr c_slow;
      let opt key =
        match reply_int reply key with
        | Some v -> [ (key, Json.Int v) ]
        | None -> []
      in
      Logging.warn t.cfg.logger
        ~fields:
          ([ ("op", Json.String job.env.Wire.op);
             ("id", job.env.Wire.id);
             ("conn", Json.Int job.jconn.cid);
             ("outcome", Json.String outcome);
             ("wall_ms", Json.Float (wall *. 1000.0));
             ( "tag",
               match job.tag with Some tg -> Json.Int tg | None -> Json.Null )
           ]
          @ opt "nodes" @ opt "table_hits" @ opt "lower_bound"
          @ opt "upper_bound")
        "slow_query"
  | _ -> ()

let process t w job =
  let env = job.env in
  let t_exec = Clock.now_ns () in
  let cached =
    if job.use_cache then Option.bind job.cache_key (Cache.find t.cache)
    else None
  in
  (* [span] names the middle trace span (what the worker actually did);
     [outcome] labels the latency histogram and the slow-query line. *)
  let outcome = ref "ok" and span = ref "exec" in
  let reply =
    match cached with
    | Some (Json.Obj core) ->
        (* The result-cache hit IS the warm-cache hit: no search runs,
           so no nodes expand and the per-request table counters report
           the one (result-cache) hit. *)
        outcome := "cache_hit";
        span := "cache_hit";
        let extra =
          match env.req with
          | Wire.Exact_cc _ ->
              [ ("nodes", Json.Int 0); ("table_hits", Json.Int 1);
                ("table_misses", Json.Int 0) ]
          | _ -> []
        in
        Wire.ok ~id:env.id ~op:env.op
          (core @ extra
          @ [ ("cache", Json.String "hit"); wall_us_field job.t0 ])
    | Some _ | None ->
        if
          match job.deadline with
          | Some d -> Clock.now_s () >= d
          | None -> false
        then begin
          (* Expired while queued: shed it without computing.  Cheap
             ops never reach here unless the queue really did starve
             them past their budget. *)
          Atomic.incr t.errors;
          Telemetry.incr c_timeouts;
          outcome := "shed";
          span := "shed";
          Wire.error ~code:"timed_out" ~id:env.id
            ~fields:[ wall_us_field job.t0 ]
            "deadline expired before compute started"
        end
        else begin
          (* Every exact-CC search gets a token even without a
             deadline, so the drain epilogue can always unstick a
             worker mid-search. *)
          let cancel =
            match env.req with
            | Wire.Exact_cc _ ->
                Some (Pool.Token.create ?deadline:job.deadline ())
            | _ -> None
          in
          (match env.req with
          | Wire.Exact_cc _ -> span := "search"
          | _ -> ());
          Mutex.lock w.qm;
          w.cur_cancel <- cancel;
          Mutex.unlock w.qm;
          let reply =
            Mutex.lock w.tm;
            match exec w env ~tag:job.tag ~cancel with
            | core, extra ->
                Mutex.unlock w.tm;
                cache_insert t job core;
                let label = if job.use_cache then "miss" else "bypass" in
                Wire.ok ~id:env.id ~op:env.op
                  (core @ extra
                  @ [ ("cache", Json.String label); wall_us_field job.t0 ])
            | exception E.Timed_out { lower; upper; nodes } ->
                Mutex.unlock w.tm;
                Atomic.incr t.errors;
                Telemetry.incr c_timeouts;
                outcome := "timed_out";
                Wire.error ~code:"timed_out" ~id:env.id
                  ~fields:
                    [ ("lower_bound", Json.Int lower);
                      ("upper_bound", Json.Int upper);
                      ("nodes", Json.Int nodes); wall_us_field job.t0 ]
                  (Printf.sprintf
                     "deadline exceeded: certified %d <= CC <= %d after %d \
                      nodes"
                     lower upper nodes)
            | exception e ->
                Mutex.unlock w.tm;
                Atomic.incr t.errors;
                outcome := "error";
                Wire.error ~id:env.id (Printexc.to_string e)
          in
          Mutex.lock w.qm;
          w.cur_cancel <- None;
          Mutex.unlock w.qm;
          reply
        end
  in
  let t_done = Clock.now_ns () in
  (* Latency and table stats are published BEFORE the reply leaves:
     a client that sees its reply and immediately asks for `stats`
     must find this request already counted. *)
  record_latency t (Clock.now_s () -. job.t0);
  Obs.observe_op ~op:env.op ~outcome:!outcome
    (int_of_float (Clock.ns_to_us (t_done - job.t0_ns)));
  let st = Tx.stats w.table and entries = Tx.length w.table in
  Mutex.lock w.qm;
  w.pub_stats <- st;
  w.pub_entries <- entries;
  Mutex.unlock w.qm;
  deliver t ~finish:true job.jconn job.seq (Wire.to_line reply);
  let t_written = Clock.now_ns () in
  if Obs.Recorder.enabled t.recorder then begin
    let root = Obs.Recorder.next_id () in
    let child name start_ns dur_ns args =
      { Obs.Recorder.name;
        id = Obs.Recorder.next_id ();
        parent = root;
        start_ns;
        dur_ns;
        args }
    in
    let opt key =
      match reply_int reply key with
      | Some v -> [ (key, string_of_int v) ]
      | None -> []
    in
    Obs.Recorder.record t.recorder
      [ { Obs.Recorder.name = "request";
          id = root;
          parent = 0;
          start_ns = job.t0_ns;
          dur_ns = t_written - job.t0_ns;
          args =
            [ ("op", env.op); ("outcome", !outcome);
              ("worker", string_of_int w.wid);
              ("conn", string_of_int job.jconn.cid);
              ("id", Json.to_string env.id) ] };
        child "queue_wait" job.t0_ns (t_exec - job.t0_ns) [];
        child !span t_exec (t_done - t_exec)
          (opt "nodes" @ opt "table_hits");
        child "reply_write" t_done (t_written - t_done) [] ]
  end;
  slow_query_log t job ~outcome:!outcome
    ~wall:(Clock.now_s () -. job.t0)
    reply

(* Dump the flight recorder to the configured path on a crash or a
   fatal exit — the ring holds the requests leading up to the event,
   which is exactly the forensic window.  Best-effort: a dump failure
   is logged, never propagated into the crash path. *)
let dump_trace_on ~event t =
  match t.cfg.trace_dump_path with
  | Some path when Obs.Recorder.enabled t.recorder -> (
      match Obs.Recorder.dump t.recorder ~path with
      | () ->
          Logging.info t.cfg.logger
            ~fields:[ ("event", Json.String event) ]
            (Printf.sprintf "flight recorder dumped to %s" path)
      | exception e ->
          Logging.warn t.cfg.logger
            (Printf.sprintf "flight recorder dump to %s failed (%s)" path
               (Printexc.to_string e)))
  | _ -> ()

(* The crash path: a worker domain whose body raised answers its
   in-flight request with a structured error, hands its queue to the
   surviving workers (the jobs were already admitted; their clients
   are waiting), and exits the domain cleanly so the acceptor can
   join and respawn it.  Never raises — an exception escaping here
   would surface in [Domain.join] and take the daemon down, which is
   exactly what crash isolation exists to prevent. *)
let worker_crashed t w exn =
  try
    Telemetry.incr c_crashes;
    let nw = Array.length t.workers in
    Mutex.lock w.qm;
    let cur = w.current in
    w.current <- None;
    w.cur_cancel <- None;
    let orphans = ref [] in
    if nw > 1 then begin
      (* With a single worker the queue stays put for the respawn. *)
      while not (Queue.is_empty w.q) do
        orphans := Queue.pop w.q :: !orphans
      done;
      w.queued <- 0
    end;
    w.alive <- false;
    Mutex.unlock w.qm;
    Logging.error t.cfg.logger
      ~fields:[ ("worker", Json.Int w.wid) ]
      (Printf.sprintf "worker %d crashed: %s" w.wid (Printexc.to_string exn));
    dump_trace_on ~event:"worker_crash" t;
    (match cur with
    | None -> ()
    | Some job ->
        Atomic.incr t.errors;
        deliver t ~finish:true job.jconn job.seq
          (Wire.to_line
             (Wire.error ~code:"worker_crashed" ~id:job.env.id
                (Printf.sprintf "worker %d crashed handling this request: %s"
                   w.wid (Printexc.to_string exn)))));
    let targets =
      Array.of_list
        (List.filter
           (fun o ->
             o.wid <> w.wid
             &&
             (Mutex.lock o.qm;
              let a = o.alive in
              Mutex.unlock o.qm;
              a))
           (Array.to_list t.workers))
    in
    let requeue tgt job =
      Mutex.lock tgt.qm;
      tgt.queued <- tgt.queued + 1;
      Queue.push job tgt.q;
      Condition.signal tgt.qc;
      Mutex.unlock tgt.qm
    in
    List.iteri
      (fun i job ->
        if Array.length targets > 0 then
          requeue targets.(i mod Array.length targets) job
        else
          (* Everyone else is down too; park it back on our own queue
             for whichever respawn comes first. *)
          requeue w job)
      (List.rev !orphans)
  with e ->
    Logging.error t.cfg.logger
      ~fields:[ ("worker", Json.Int w.wid) ]
      (Printf.sprintf "worker %d crash handler itself failed: %s" w.wid
         (Printexc.to_string e))

let worker_loop t w =
  let rec next () =
    Mutex.lock w.qm;
    let rec await () =
      if not (Queue.is_empty w.q) then begin
        let job = Queue.pop w.q in
        w.queued <- w.queued - 1;
        w.current <- Some job;
        Some job
      end
      else if Atomic.get t.stop then None
      else begin
        Condition.wait w.qc w.qm;
        await ()
      end
    in
    let job = await () in
    Mutex.unlock w.qm;
    match job with
    | Some job ->
        (* The chaos crash site sits OUTSIDE [process]'s own exception
           handling, so an injected fault here exercises the real
           crash path, not the per-request error reply.  The site is
           numbered by jobs started (not finished) so a respawned
           worker re-rolls instead of crash-looping on the same
           site. *)
        let n = w.jobs_done in
        w.jobs_done <- n + 1;
        Faults.point t.cfg.chaos
          ~site:(Printf.sprintf "serve:worker:%d:job%d" w.wid n);
        process t w job;
        Mutex.lock w.qm;
        w.current <- None;
        Mutex.unlock w.qm;
        next ()
    | None -> ()
  in
  try next () with e -> worker_crashed t w e

(* ------------------------------------------------------------------ *)
(* Inline ops (acceptor side)                                          *)
(* ------------------------------------------------------------------ *)

let latency_snapshot t =
  Mutex.lock t.latm;
  let n = min t.lat_n latency_ring in
  let xs = Array.sub t.lat 0 n in
  let total = t.lat_n in
  Mutex.unlock t.latm;
  (xs, total)

let stats_fields t =
  let xs, total = latency_snapshot t in
  let pct p =
    if Array.length xs = 0 then 0.0 else Stats.percentile xs p *. 1e6
  in
  let cs = Cache.stats t.cache in
  let th = ref 0 and tm = ref 0 and te = ref 0 and ts = ref 0 in
  let entries = ref 0 in
  Array.iter
    (fun w ->
      Mutex.lock w.qm;
      let st = w.pub_stats and e = w.pub_entries in
      Mutex.unlock w.qm;
      th := !th + st.Tx.hits;
      tm := !tm + st.Tx.misses;
      te := !te + st.Tx.evictions;
      ts := !ts + st.Tx.stores;
      entries := !entries + e)
    t.workers;
  let alive =
    Array.fold_left
      (fun acc w ->
        Mutex.lock w.qm;
        let a = w.alive in
        Mutex.unlock w.qm;
        if a then acc + 1 else acc)
      0 t.workers
  in
  [ ("protocol_version", Json.Int protocol_version);
    ("uptime_s", Json.Float (Clock.now_s () -. t.started));
    ("requests", Json.Int (Atomic.get t.requests));
    ("errors", Json.Int (Atomic.get t.errors));
    ("workers", Json.Int (Array.length t.workers));
    ("workers_alive", Json.Int alive);
    ( "latency_us",
      Json.Obj
        [ ("count", Json.Int total);
          ("p50", Json.Float (pct 50.0));
          ("p95", Json.Float (pct 95.0));
          ("p99", Json.Float (pct 99.0)) ] );
    ( "result_cache",
      Json.Obj
        [ ("hits", Json.Int cs.Cache.hits);
          ("misses", Json.Int cs.Cache.misses);
          ("evictions", Json.Int cs.Cache.evictions);
          ("entries", Json.Int cs.Cache.entries);
          ("capacity", Json.Int t.cfg.cache_capacity);
          ("tags", Json.Int (Cache.Tags.count t.tags)) ] );
    ( "table",
      Json.Obj
        [ ("segments", Json.Int (Array.length t.workers));
          ("entries", Json.Int !entries);
          ("hits", Json.Int !th);
          ("misses", Json.Int !tm);
          ("evictions", Json.Int !te);
          ("stores", Json.Int !ts) ] );
    ( "ops",
      (* Per-op latency summaries (merged across outcomes), quantiles
         from the cumulative telemetry buckets — the same numbers the
         /metrics histograms expose, here for in-band consumers like
         [ccmx top]. *)
      Json.Obj
        (List.map
           (fun (op, s) ->
             let q p = Telemetry.summary_quantile s p in
             ( op,
               Json.Obj
                 [ ("count", Json.Int s.Telemetry.count);
                   ("p50_us", Json.Float (q 50.0));
                   ("p95_us", Json.Float (q 95.0));
                   ("p99_us", Json.Float (q 99.0)) ] ))
           (Obs.op_summaries ())) );
    ( "queues",
      Json.List
        (Array.to_list
           (Array.map
              (fun w ->
                Mutex.lock w.qm;
                let queued = w.queued
                and busy = w.current <> None
                and a = w.alive in
                Mutex.unlock w.qm;
                Json.Obj
                  [ ("worker", Json.Int w.wid);
                    ("queued", Json.Int queued);
                    ("inflight", Json.Int (if busy then 1 else 0));
                    ("alive", Json.Bool a) ])
              t.workers)) );
    ( "counters",
      Json.Obj
        (List.map (fun (k, v) -> (k, Json.Int v)) (Telemetry.counters ())) )
  ]

(* ------------------------------------------------------------------ *)
(* Metrics exposition (acceptor side)                                  *)
(* ------------------------------------------------------------------ *)

(* The GET /metrics payload: server-direct series sampled at scrape
   time merged with the interned Telemetry snapshot.  Gauges reflect
   the instant of the GET; counters are process-cumulative, so a
   scraper sees the same totals the in-band stats op reports. *)
let metrics_body t =
  let now = Clock.now_s () in
  let cs = Cache.stats t.cache in
  let hit_ratio =
    let tot = cs.Cache.hits + cs.Cache.misses in
    if tot = 0 then 0.0 else float_of_int cs.Cache.hits /. float_of_int tot
  in
  let th = ref 0 and tm = ref 0 and te = ref 0 and ts = ref 0 in
  let entries = ref 0 in
  let alive = ref 0 in
  let worker_gauges = ref [] in
  Array.iter
    (fun w ->
      Mutex.lock w.qm;
      let queued = w.queued
      and busy = w.current <> None
      and a = w.alive
      and st = w.pub_stats
      and e = w.pub_entries in
      Mutex.unlock w.qm;
      if a then incr alive;
      th := !th + st.Tx.hits;
      tm := !tm + st.Tx.misses;
      te := !te + st.Tx.evictions;
      ts := !ts + st.Tx.stores;
      entries := !entries + e;
      let l = [ ("worker", string_of_int w.wid) ] in
      worker_gauges :=
        (Obs.labeled "serve.table_entries" l, float_of_int e)
        :: (Obs.labeled "serve.worker_alive" l, if a then 1.0 else 0.0)
        :: (Obs.labeled "serve.inflight" l, if busy then 1.0 else 0.0)
        :: (Obs.labeled "serve.queue_depth" l, float_of_int queued)
        :: !worker_gauges)
    t.workers;
  let counters =
    Telemetry.counters ()
    @ [ ("serve.requests", Atomic.get t.requests);
        ("serve.errors", Atomic.get t.errors);
        ("serve.cache_hits", cs.Cache.hits);
        ("serve.cache_misses", cs.Cache.misses);
        ("serve.cache_evictions", cs.Cache.evictions);
        ("serve.table_hits", !th);
        ("serve.table_misses", !tm);
        ("serve.table_evictions", !te);
        ("serve.table_stores", !ts) ]
  in
  let gauges =
    Telemetry.gauges ()
    @ [ ("serve.uptime_seconds", now -. t.started);
        ("serve.workers", float_of_int (Array.length t.workers));
        ("serve.workers_alive", float_of_int !alive);
        ("serve.cache_hit_ratio", hit_ratio);
        ("serve.cache_entries", float_of_int cs.Cache.entries);
        ("serve.cache_capacity", float_of_int t.cfg.cache_capacity);
        ("serve.cache_tags", float_of_int (Cache.Tags.count t.tags));
        ("serve.table_entries_all", float_of_int !entries);
        ("serve.snapshot_age_seconds", now -. t.last_snapshot) ]
    @ List.rev !worker_gauges
  in
  Obs.render_metrics ~counters ~gauges
    ~histograms:(Telemetry.histograms ()) ()

(* Readiness: every worker domain alive, no queue at the shed
   threshold, and — when periodic snapshots are armed — the last
   snapshot recent enough that warm state would survive a kill. *)
let healthz t =
  let nw = Array.length t.workers in
  let alive = ref 0 and maxq = ref 0 in
  Array.iter
    (fun w ->
      Mutex.lock w.qm;
      if w.alive then incr alive;
      if w.queued > !maxq then maxq := w.queued;
      Mutex.unlock w.qm)
    t.workers;
  let age = Clock.now_s () -. t.last_snapshot in
  let snapshot_ok =
    match t.cfg.snapshot_every_s with
    | Some s -> age < 3.0 *. s
    | None -> true
  in
  let ok = !alive = nw && !maxq < t.cfg.max_queue && snapshot_ok in
  ( ok,
    Json.to_string
      (Json.Obj
         [ ("ok", Json.Bool ok);
           ("workers", Json.Int nw);
           ("workers_alive", Json.Int !alive);
           ("max_queue_depth", Json.Int !maxq);
           ("queue_limit", Json.Int t.cfg.max_queue);
           ("snapshot_age_s", Json.Float age);
           ("snapshot_fresh", Json.Bool snapshot_ok) ])
    ^ "\n" )

(* ------------------------------------------------------------------ *)
(* Request admission                                                   *)
(* ------------------------------------------------------------------ *)

let dispatch t conn (env : Wire.envelope) t0 t0_ns =
  let cache_key = content_key env.req in
  let use_cache =
    match env.req with Wire.Exact_cc { use_cache; _ } -> use_cache | _ -> true
  in
  (* Effective compute deadline: the tighter of the request's own
     budget and the server-side default, absolute from parse time. *)
  let deadline =
    let of_ms ms = t0 +. (float_of_int ms /. 1000.0) in
    match (env.deadline_ms, t.cfg.request_timeout_s) with
    | None, None -> None
    | Some ms, None -> Some (of_ms ms)
    | None, Some s -> Some (t0 +. s)
    | Some ms, Some s -> Some (min (of_ms ms) (t0 +. s))
  in
  match
    match env.req with
    | Wire.Exact_cc _ ->
        Some (Cache.Tags.tag t.tags (Option.get cache_key))
    | _ -> None
  with
  | exception Failure msg ->
      Atomic.incr t.errors;
      let seq = alloc_seq conn in
      deliver t conn seq (Wire.to_line (Wire.error ~id:env.id msg))
  | tag ->
      let nw = Array.length t.workers in
      let w =
        match tag with
        | Some tg -> t.workers.(tg mod nw)
        | None -> t.workers.(Hashtbl.hash cache_key mod nw)
      in
      let seq = alloc_seq ~inflight:true conn in
      let job =
        { env; jconn = conn; seq; t0; t0_ns; deadline; tag; cache_key;
          use_cache }
      in
      Mutex.lock w.qm;
      if w.queued >= t.cfg.max_queue then begin
        Mutex.unlock w.qm;
        Atomic.incr t.errors;
        Telemetry.incr c_overloaded;
        deliver t ~finish:true conn seq
          (Wire.to_line
             (Wire.error ~code:"overloaded" ~id:env.id
                (Printf.sprintf
                   "server overloaded: worker %d queue is full (%d)" w.wid
                   t.cfg.max_queue)))
      end
      else begin
        w.queued <- w.queued + 1;
        Queue.push job w.q;
        Condition.signal w.qc;
        Mutex.unlock w.qm
      end

let handle_line t conn line =
  if String.trim line <> "" then begin
    Atomic.incr t.requests;
    let t0 = Clock.now_s () in
    let t0_ns = Clock.now_ns () in
    let inline ?(op = "invalid") ?(outcome = "ok") reply =
      let seq = alloc_seq conn in
      record_latency t (Clock.now_s () -. t0);
      Obs.observe_op ~op ~outcome
        (int_of_float ((Clock.now_s () -. t0) *. 1e6));
      deliver t conn seq (Wire.to_line reply)
    in
    match Wire.parse line with
    | Error (id, msg) ->
        Atomic.incr t.errors;
        inline ~outcome:"error" (Wire.error ~id msg)
    | Ok env -> (
        match env.req with
        | Wire.Ping -> inline ~op:env.op (Wire.ok ~id:env.id ~op:env.op [])
        | Wire.Stats ->
            inline ~op:env.op (Wire.ok ~id:env.id ~op:env.op (stats_fields t))
        | Wire.Dump_trace ->
            inline ~op:env.op
              (Wire.ok ~id:env.id ~op:env.op
                 [ ("enabled", Json.Bool (Obs.Recorder.enabled t.recorder));
                   ("trace", Obs.Recorder.to_chrome t.recorder) ])
        | Wire.Shutdown ->
            inline ~op:env.op (Wire.ok ~id:env.id ~op:env.op []);
            Logging.info t.cfg.logger
              ~fields:[ ("conn", Json.Int conn.cid) ]
              (Printf.sprintf "conn %d: shutdown requested" conn.cid);
            Atomic.set t.stop true
        (* Admission check: the wire accepts matrices up to
           [Wire.max_matrix_side] (64), but the engine only admits
           canonical boards up to [E.max_side] — without this check an
           oversize request costs a full worker round-trip before
           failing deep in the search.  [E.canonical_dims] is one
           duplicate-collapse pass, cheap enough for the accept
           path. *)
        | Wire.Exact_cc { matrix; _ } ->
            let cr, cc = E.canonical_dims matrix in
            if cr > E.max_side || cc > E.max_side then begin
              Atomic.incr t.errors;
              Telemetry.incr c_too_large;
              inline ~op:env.op ~outcome:"error"
                (Wire.error ~code:"too_large" ~id:env.id
                   ~fields:
                     [ ("canon_rows", Json.Int cr);
                       ("canon_cols", Json.Int cc);
                       ("limit", Json.Int E.max_side) ]
                   (Printf.sprintf
                      "matrix too large for exact_cc: canonical %dx%d \
                       exceeds %dx%d"
                      cr cc E.max_side E.max_side))
            end
            else dispatch t conn env t0 t0_ns
        | _ -> dispatch t conn env t0 t0_ns)
  end

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

let tag_of_table_key key = key lsr (2 * E.max_side)

let snapshot_doc t =
  Json.Obj
    [ ("format", Json.String snapshot_format);
      ("version", Json.Int snapshot_version);
      ("workers", Json.Int (Array.length t.workers));
      ("tags", Cache.Tags.to_json t.tags);
      ("cache", Cache.to_json t.cache);
      ( "segments",
        Json.List
          (Array.to_list
             (Array.map
                (* Txtable is not thread-safe: the segment is copied
                   under its table mutex, held by the owning worker
                   only while computing.  Segments snapshot one at a
                   time — fine for a cache, which needs no cross-
                   segment consistency point. *)
                (fun w ->
                  Mutex.lock w.tm;
                  let s = Tx.save w.table in
                  Mutex.unlock w.tm;
                  s)
                t.workers)) )
    ]

(* [?chaos_site] is set only on periodic snapshots, so a chaos run
   still writes its final (shutdown) snapshot and a warm restart can
   be asserted after a soak.  Any failure is logged and survived: the
   previous snapshot file is intact (writes are temp+rename) and the
   next interval retries. *)
let write_snapshot ?chaos_site t =
  match t.cfg.snapshot_path with
  | None -> ()
  | Some path -> (
      match
        Option.iter (fun site -> Faults.point t.cfg.chaos ~site) chaos_site;
        Json.to_file ~path (snapshot_doc t)
      with
      | () ->
          Telemetry.incr c_snapshots;
          t.last_snapshot <- Clock.now_s ();
          Logging.info t.cfg.logger
            (Printf.sprintf
               "snapshot written to %s (%d tags, %d cached results)" path
               (Cache.Tags.count t.tags)
               (Cache.stats t.cache).Cache.entries)
      | exception Faults.Injected site ->
          Telemetry.incr c_chaos_snapshot;
          Logging.warn t.cfg.logger
            (Printf.sprintf "chaos: snapshot skipped at %s" site)
      | exception e ->
          Logging.warn t.cfg.logger
            (Printf.sprintf "snapshot write to %s failed (%s)" path
               (Printexc.to_string e)))

let mk_table cfg = Tx.create ?budget_entries:cfg.table_budget ()

(* Load warm state, or start cold.  Everything is parsed and validated
   into fresh structures before any of it is adopted, so a snapshot
   rejected halfway cannot leave the daemon half-warm. *)
let load_warm_state cfg ~workers:nw =
  let fresh () =
    ( Cache.Tags.create (),
      Cache.create ~capacity:cfg.cache_capacity,
      Array.init nw (fun _ -> mk_table cfg) )
  in
  match cfg.snapshot_path with
  | None -> fresh ()
  | Some path when not (Sys.file_exists path) ->
      Logging.info cfg.logger
        (Printf.sprintf "no snapshot at %s, starting cold" path);
      fresh ()
  | Some path -> (
      match
        let doc = Json.of_file path in
        (match Json.member "format" doc with
        | Some (Json.String f) when f = snapshot_format -> ()
        | Some (Json.String other) ->
            failwith
              (Printf.sprintf "format %S is not a serve snapshot" other)
        | _ -> failwith "missing \"format\" marker");
        (match Json.member "version" doc with
        | Some (Json.Int v) when v = snapshot_version -> ()
        | Some (Json.Int v) ->
            failwith
              (Printf.sprintf
                 "unsupported snapshot version %d (this build reads %d)" v
                 snapshot_version)
        | _ -> failwith "missing or non-integer \"version\"");
        let tags =
          match Json.member "tags" doc with
          | Some j -> Cache.Tags.load j
          | None -> failwith "missing \"tags\""
        in
        let cache =
          match Json.member "cache" doc with
          | Some j -> Cache.load ~capacity:cfg.cache_capacity j
          | None -> failwith "missing \"cache\""
        in
        let tables = Array.init nw (fun _ -> mk_table cfg) in
        let moved = ref 0 in
        (match Json.member "segments" doc with
        | Some (Json.List segs) ->
            List.iter
              (fun seg ->
                let src = Tx.load seg in
                (* Redistribute by tag so warmth survives a change in
                   worker count: dispatch routes by the same formula. *)
                Tx.iter src (fun key v ->
                    Tx.set tables.(tag_of_table_key key mod nw) key v;
                    incr moved))
              segs
        | _ -> failwith "missing or non-list \"segments\"");
        Array.iter Tx.reset_stats tables;
        (tags, cache, tables, !moved)
      with
      | tags, cache, tables, moved ->
          Logging.info cfg.logger
            (Printf.sprintf
               "snapshot %s loaded: %d tags, %d cached results, %d table \
                entries"
               path (Cache.Tags.count tags)
               (Cache.stats cache).Cache.entries moved);
          (tags, cache, tables)
      | exception Failure msg ->
          Logging.warn cfg.logger
            (Printf.sprintf "snapshot %s rejected (%s), starting cold" path
               msg);
          fresh ()
      | exception e ->
          Logging.warn cfg.logger
            (Printf.sprintf "snapshot %s unreadable (%s), starting cold" path
               (Printexc.to_string e));
          fresh ())

(* ------------------------------------------------------------------ *)
(* Acceptor                                                            *)
(* ------------------------------------------------------------------ *)

let run ?(stop = Atomic.make false) (cfg : config) =
  Sigguard.ignore_sigpipe ();
  let nw = cfg.workers in
  let tags, cache, tables = load_warm_state cfg ~workers:nw in
  let workers =
    Array.init nw (fun wid ->
        { wid;
          table = tables.(wid);
          tm = Mutex.create ();
          q = Queue.create ();
          qm = Mutex.create ();
          qc = Condition.create ();
          queued = 0;
          current = None;
          cur_cancel = None;
          alive = true;
          jobs_done = 0;
          pub_stats = Tx.stats tables.(wid);
          pub_entries = Tx.length tables.(wid) })
  in
  let t =
    { cfg; stop; cache; tags; workers;
      latm = Mutex.create ();
      lat = Array.make latency_ring 0.0;
      lat_n = 0;
      requests = Atomic.make 0;
      errors = Atomic.make 0;
      started = Clock.now_s ();
      hist = Telemetry.histogram "serve.request_us";
      recorder = Obs.Recorder.create ~capacity:cfg.trace_ring;
      (* Boot counts as "fresh" so /healthz is green until the first
         periodic snapshot is actually due. *)
      last_snapshot = Clock.now_s () }
  in
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind lfd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen lfd 16
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise e);
  Logging.info cfg.logger
    (Printf.sprintf "listening on %s (%d worker domain(s), protocol v%d)"
       cfg.socket_path nw protocol_version);
  (* Observability listeners (GET /metrics, GET /healthz): tiny
     HTTP/1.0 exchanges answered inline from the same select loop, so
     a scrape can never race worker state and costs no extra domain. *)
  let metrics_lfds =
    let unix_l =
      match cfg.metrics_socket with
      | None -> []
      | Some path ->
          (try Unix.unlink path with Unix.Unix_error _ -> ());
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          (try
             Unix.bind fd (Unix.ADDR_UNIX path);
             Unix.listen fd 16
           with e ->
             (try Unix.close fd with Unix.Unix_error _ -> ());
             raise e);
          Logging.info cfg.logger
            (Printf.sprintf "metrics on %s (unix)" path);
          [ fd ]
    in
    let tcp_l =
      match cfg.metrics_port with
      | None -> []
      | Some port ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          (try
             Unix.setsockopt fd Unix.SO_REUSEADDR true;
             (* Loopback only: the exposition is diagnostics, not a
                public interface. *)
             Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
             Unix.listen fd 16
           with e ->
             (try Unix.close fd with Unix.Unix_error _ -> ());
             raise e);
          Logging.info cfg.logger
            (Printf.sprintf "metrics on 127.0.0.1:%d (tcp)" port);
          [ fd ]
    in
    unix_l @ tcp_l
  in
  let mconns : (Unix.file_descr, Buffer.t) Hashtbl.t = Hashtbl.create 4 in
  let domains =
    Array.map (fun w -> Some (Domain.spawn (fun () -> worker_loop t w))) workers
  in
  (* Sliding-window respawn accounting, acceptor-only state. *)
  let respawn_times = Array.make nw [] in
  let fatal = ref None in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let next_cid = ref 0 in
  let rdbuf = Bytes.create 65536 in
  let accept_conn () =
    match Unix.accept lfd with
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
      ->
        ()
    | fd, _ ->
        (* Nonblocking, so a client that stops reading stalls only its
           own bounded write deadline, never a domain. *)
        Unix.set_nonblock fd;
        let cid = !next_cid in
        incr next_cid;
        Hashtbl.replace conns fd
          { fd; cid;
            rbuf = Buffer.create 256;
            cm = Mutex.create ();
            next_seq = 0;
            next_write = 0;
            pending = Hashtbl.create 8;
            write_ok = true;
            eof = false;
            discarding = false;
            inflight = 0 }
  in
  let shed_oversized conn =
    Atomic.incr t.errors;
    Telemetry.incr c_oversized;
    let seq = alloc_seq conn in
    deliver t conn seq
      (Wire.to_line
         (Wire.error ~code:"line_too_long" ~id:Json.Null
            (Printf.sprintf "request line exceeds %d bytes"
               cfg.max_line_bytes)))
  in
  (* A line that outgrows [max_line_bytes] gets one structured error,
     then the connection switches to discard mode: bytes are dropped
     until the newline that ends the oversized line, and parsing
     resumes with the next request.  The client keeps its connection —
     and its reply ordering — instead of being disconnected.  Only the
     new bytes of each chunk are searched for a newline; the pending
     partial line in [rbuf] is copied out once, when it completes. *)
  let rec newline i n =
    if i >= n then -1
    else if Bytes.unsafe_get rdbuf i = '\n' then i
    else newline (i + 1) n
  in
  let rec consume_chunk conn off n =
    if off < n then
      match newline off n with
      | -1 ->
          (* the rest of the chunk is a partial line *)
          if not conn.discarding then begin
            Buffer.add_subbytes conn.rbuf rdbuf off (n - off);
            if Buffer.length conn.rbuf > cfg.max_line_bytes then begin
              shed_oversized conn;
              Buffer.clear conn.rbuf;
              conn.discarding <- true
            end
          end
      | i ->
          if conn.discarding then conn.discarding <- false
          else if Buffer.length conn.rbuf + (i - off) > cfg.max_line_bytes then begin
            (* a complete line can still breach the bound when it
               arrived within one read chunk *)
            Buffer.clear conn.rbuf;
            shed_oversized conn
          end
          else begin
            Buffer.add_subbytes conn.rbuf rdbuf off (i - off);
            let line = Buffer.contents conn.rbuf in
            Buffer.clear conn.rbuf;
            handle_line t conn line
          end;
          consume_chunk conn (i + 1) n
  in
  let accept_mconn mlfd =
    match Unix.accept mlfd with
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
      ->
        ()
    | fd, _ ->
        Unix.set_nonblock fd;
        Hashtbl.replace mconns fd (Buffer.create 64)
  in
  let close_mconn fd =
    Hashtbl.remove mconns fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (* One request head line, one response, close — the whole exchange
     bounded by the same write deadline as reply writes. *)
  let metrics_respond fd head =
    let body, status, ctype =
      match Obs.http_path head with
      | Some "/metrics" ->
          (metrics_body t, 200, "text/plain; version=0.0.4")
      | Some "/healthz" ->
          let ok, body = healthz t in
          (body, (if ok then 200 else 503), "application/json")
      | _ -> ("not found\n", 404, "text/plain")
    in
    let resp = Obs.http_response ~status ~content_type:ctype body in
    let b = Bytes.of_string resp in
    let deadline = Clock.now_s () +. cfg.write_timeout_s in
    (try write_all fd b 0 (Bytes.length b) ~deadline
     with e when is_write_failure e -> ());
    close_mconn fd
  in
  let read_mconn fd buf =
    match Unix.read fd rdbuf 0 (Bytes.length rdbuf) with
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> close_mconn fd
    | 0 -> close_mconn fd
    | n ->
        Buffer.add_subbytes buf rdbuf 0 n;
        let s = Buffer.contents buf in
        (match String.index_opt s '\n' with
        | Some i -> metrics_respond fd (String.sub s 0 i)
        | None ->
            (* No plausible request head is this long. *)
            if Buffer.length buf > 4096 then close_mconn fd)
  in
  let read_conn conn =
    match Unix.read conn.fd rdbuf 0 (Bytes.length rdbuf) with
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        conn.eof <- true
    | 0 -> conn.eof <- true
    | n -> consume_chunk conn 0 n
  in
  let reap () =
    let dead =
      Hashtbl.fold
        (fun fd c acc ->
          Mutex.lock c.cm;
          let idle = c.inflight = 0 in
          let gone = (c.eof || not c.write_ok) && idle in
          Mutex.unlock c.cm;
          if gone then (fd, c) :: acc else acc)
        conns []
    in
    List.iter
      (fun (fd, _) ->
        Hashtbl.remove conns fd;
        try Unix.close fd with Unix.Unix_error _ -> ())
      dead
  in
  (* Detect worker domains whose body exited while the daemon is
     still running: only the crash path does that (normal exits happen
     after stop).  Join the dead domain, then respawn onto the same
     worker record — same wid, same table segment, same queue — unless
     this worker has exhausted its respawn budget for the sliding
     window, in which case the whole daemon shuts down and [run]
     raises [Fatal] after the drain. *)
  let check_workers () =
    Array.iteri
      (fun i w ->
        let dead =
          Mutex.lock w.qm;
          let d = not w.alive in
          Mutex.unlock w.qm;
          d
        in
        if dead && !fatal = None then begin
          (match domains.(i) with
          | Some d ->
              Domain.join d;
              domains.(i) <- None
          | None -> ());
          let now = Clock.now_s () in
          let recent =
            List.filter
              (fun ts -> now -. ts < cfg.respawn_window_s)
              respawn_times.(i)
          in
          if List.length recent >= cfg.respawn_budget then begin
            fatal :=
              Some
                (Printf.sprintf
                   "worker %d exhausted its respawn budget (%d respawns \
                    within %.0fs)"
                   w.wid cfg.respawn_budget cfg.respawn_window_s);
            Logging.error cfg.logger
              ~fields:[ ("worker", Json.Int w.wid) ]
              (Option.get !fatal);
            (* Its queue will never be served; answer, don't strand. *)
            let stranded = ref [] in
            Mutex.lock w.qm;
            while not (Queue.is_empty w.q) do
              stranded := Queue.pop w.q :: !stranded
            done;
            w.queued <- 0;
            Mutex.unlock w.qm;
            List.iter
              (fun job ->
                Atomic.incr t.errors;
                deliver t ~finish:true job.jconn job.seq
                  (Wire.to_line
                     (Wire.error ~code:"worker_crashed" ~id:job.env.Wire.id
                        "worker exhausted its respawn budget")))
              (List.rev !stranded);
            Atomic.set t.stop true
          end
          else begin
            respawn_times.(i) <- now :: recent;
            Mutex.lock w.qm;
            w.alive <- true;
            Mutex.unlock w.qm;
            domains.(i) <- Some (Domain.spawn (fun () -> worker_loop t w));
            Telemetry.incr c_respawns;
            Logging.warn cfg.logger
              ~fields:[ ("worker", Json.Int w.wid) ]
              (Printf.sprintf "worker %d respawned (%d/%d in window)" w.wid
                 (List.length recent + 1)
                 cfg.respawn_budget)
          end
        end)
      workers
  in
  let snap_count = ref 0 in
  let next_snapshot =
    ref
      (match cfg.snapshot_every_s with
      | Some s -> Clock.now_s () +. s
      | None -> infinity)
  in
  let periodic_snapshot () =
    match cfg.snapshot_every_s with
    | Some s when Clock.now_s () >= !next_snapshot ->
        let n = !snap_count in
        incr snap_count;
        write_snapshot ~chaos_site:(Printf.sprintf "serve:snapshot:%d" n) t;
        next_snapshot := Clock.now_s () +. s
    | _ -> ()
  in
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      let fds =
        (lfd :: metrics_lfds)
        @ Hashtbl.fold (fun fd _ acc -> fd :: acc) mconns []
        @ Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
      in
      (match Unix.select fds [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          List.iter
            (fun fd ->
              if fd = lfd then accept_conn ()
              else if List.mem fd metrics_lfds then accept_mconn fd
              else
                match Hashtbl.find_opt conns fd with
                | Some conn -> read_conn conn
                | None -> (
                    match Hashtbl.find_opt mconns fd with
                    | Some buf -> read_mconn fd buf
                    | None -> ()))
            ready);
      check_workers ();
      reap ();
      periodic_snapshot ();
      loop ()
    end
  in
  loop ();
  (* Graceful drain: no new connections or reads; let workers finish
     what is queued, then persist the warm state. *)
  Logging.info cfg.logger "stop requested, draining";
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    metrics_lfds;
  Option.iter
    (fun path -> try Unix.unlink path with Unix.Unix_error _ -> ())
    cfg.metrics_socket;
  Hashtbl.iter
    (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
    mconns;
  let all_idle () =
    Array.for_all
      (fun w ->
        Mutex.lock w.qm;
        let e = w.queued = 0 in
        Mutex.unlock w.qm;
        e)
      workers
    && Hashtbl.fold
         (fun _ c acc ->
           Mutex.lock c.cm;
           let i = c.inflight in
           Mutex.unlock c.cm;
           acc && i = 0)
         conns true
  in
  let deadline = Clock.now_s () +. cfg.drain_timeout_s in
  while not (all_idle ()) && Clock.now_s () < deadline do
    Clock.sleepf 0.02
  done;
  (* Past the drain deadline a search may still be running; fire its
     cancel token so the worker raises out of the search, answers
     timed_out, and its domain becomes joinable.  (Every exact-CC job
     carries a token precisely for this.) *)
  Array.iter
    (fun w ->
      Mutex.lock w.qm;
      (match w.cur_cancel with
      | Some tok -> Pool.Token.cancel tok
      | None -> ());
      Mutex.unlock w.qm)
    workers;
  Array.iter
    (fun w ->
      Mutex.lock w.qm;
      Condition.broadcast w.qc;
      Mutex.unlock w.qm)
    workers;
  Array.iter (function Some d -> Domain.join d | None -> ()) domains;
  write_snapshot t;
  Hashtbl.iter
    (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
    conns;
  Logging.info cfg.logger
    (Printf.sprintf "stopped after %d request(s)" (Atomic.get t.requests));
  match !fatal with
  | Some msg ->
      dump_trace_on ~event:"fatal" t;
      raise (Fatal msg)
  | None -> ()
