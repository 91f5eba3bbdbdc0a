(* ccmx — command-line driver for the Chu-Schnitger reproduction.

   Subcommands:
     gen       generate a hard instance (optionally forced singular)
     singular  decide singularity of a matrix read from a file
     check     differential fuzzing: optimized kernels vs. oracles
     protocol  run a protocol on a generated instance and report bits
     bounds    print the bound calculators for given (n, k)
     lemmas    spot-check Lemmas 3.2 / 3.5 / 3.9 on random instances *)

module B = Commx_bigint.Bigint
module Zm = Commx_linalg.Zmatrix
module Prng = Commx_util.Prng
module Params = Commx_core.Params
module H = Commx_core.Hard_instance
module L32 = Commx_core.Lemma32
module L35 = Commx_core.Lemma35
module L39 = Commx_core.Lemma39
module Bounds = Commx_core.Bounds
module Protocol = Commx_comm.Protocol
module Partition = Commx_comm.Partition
module Halves = Commx_protocols.Halves
module Trivial = Commx_protocols.Trivial
module Fingerprint = Commx_protocols.Fingerprint
module Cli = Commx_util.Cli
module Clock = Commx_util.Clock
module Faults = Commx_util.Faults
module Supervisor = Commx_util.Supervisor
module Telemetry = Commx_util.Telemetry
module Artifact = Commx_util.Artifact
module Json = Commx_util.Json
module Runner = Commx_check.Runner
module Suite = Commx_check.Suite
module Sigguard = Commx_util.Sigguard
module Logging = Commx_util.Logging
module Server = Commx_serve.Server
module Client = Commx_serve.Client
module Wire = Commx_serve.Wire
module Traffic = Commx_util.Traffic
module Load = Commx_load.Load

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let n_arg =
  let doc = "Half-dimension n (the matrix is 2n x 2n); odd, >= 5." in
  Arg.(value & opt int 7 & info [ "n" ] ~docv:"N" ~doc)

let k_arg =
  let doc = "Bits per entry; >= 2." in
  Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc)

let seed_arg =
  let doc = "PRNG seed (runs are deterministic given the seed)." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let params_of n k =
  if not (Params.is_valid ~n ~k) then
    `Error (false, Printf.sprintf "invalid parameters n=%d k=%d" n k)
  else `Ok (Params.make ~n ~k)

let print_matrix m =
  for i = 0 to Zm.rows m - 1 do
    print_string
      (String.concat " "
         (List.init (Zm.cols m) (fun j -> B.to_string (Zm.get m i j))));
    print_newline ()
  done

let read_matrix path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then begin
         let entries =
           line |> String.split_on_char ' '
           |> List.filter (fun s -> s <> "")
           |> List.map B.of_string
         in
         rows := Array.of_list entries :: !rows
       end
     done
   with End_of_file -> close_in ic);
  match List.rev !rows with
  | [] -> failwith "empty matrix file"
  | first :: _ as rows_list ->
      let cols = Array.length first in
      if List.exists (fun r -> Array.length r <> cols) rows_list then
        failwith "ragged matrix file";
      let arr = Array.of_list rows_list in
      Zm.init (Array.length arr) cols (fun i j -> arr.(i).(j))

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen n k seed singular =
  match params_of n k with
  | `Error _ as e -> e
  | `Ok p ->
      let g = Prng.create seed in
      let f = H.random_free g p in
      let f =
        if singular then (L35.complete p ~c:f.H.c ~e:f.H.e).L35.free else f
      in
      print_matrix (H.build_m p f);
      `Ok ()

let gen_cmd =
  let singular =
    Arg.(
      value & flag
      & info [ "singular" ]
          ~doc:"Complete D, y via Lemma 3.5(a) so the instance is singular.")
  in
  let doc = "Generate a Fig. 1/3 hard instance on stdout." in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(ret (const gen $ n_arg $ k_arg $ seed_arg $ singular))

(* ------------------------------------------------------------------ *)
(* singular (named `check` before the fuzzer took that name)           *)
(* ------------------------------------------------------------------ *)

let singular path =
  let m = read_matrix path in
  if not (Zm.is_square m) then `Error (false, "matrix is not square")
  else begin
    let d, rank = Zm.det_rank m in
    Printf.printf "dimension: %d\nrank: %d\ndet: %s\nsingular: %b\n"
      (Zm.rows m) rank (B.to_string d) (B.is_zero d);
    `Ok ()
  end

let singular_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Whitespace-separated integer matrix.")
  in
  let doc = "Decide singularity (plus rank and determinant) exactly." in
  Cmd.v (Cmd.info "singular" ~doc) Term.(ret (const singular $ path))

(* ------------------------------------------------------------------ *)
(* protocol                                                            *)
(* ------------------------------------------------------------------ *)

let protocol n k seed which epsilon =
  match params_of n k with
  | `Error _ as e -> e
  | `Ok p ->
      let g = Prng.create seed in
      let m = H.build_m p (H.random_free g p) in
      let alice, bob = Halves.split_pi0 m in
      let truth = Zm.is_singular m in
      (match which with
      | "trivial" ->
          let got, bits = Protocol.execute (Trivial.singularity ~k) alice bob in
          Printf.printf
            "trivial protocol: answer=%b (truth %b), %d bits (2kn^2 = %d)\n"
            got truth bits
            (Bounds.trivial_upper_bits ~n ~k);
          `Ok ()
      | "fingerprint" ->
          let rp = Fingerprint.singularity ~n ~k ~epsilon in
          let got, bits =
            Protocol.execute
              (rp.Commx_comm.Randomized.run_seeded ~seed:(seed + 1))
              alice bob
          in
          Printf.printf
            "fingerprint protocol (eps=%.3f): answer=%b (truth %b), %d \
             bits (trivial: %d)\n"
            epsilon got truth bits
            (Bounds.trivial_upper_bits ~n ~k);
          `Ok ()
      | other ->
          `Error (false, Printf.sprintf "unknown protocol %S" other))

let protocol_cmd =
  let which =
    Arg.(
      value
      & opt string "trivial"
      & info [ "protocol" ] ~docv:"NAME"
          ~doc:"Protocol to run: $(b,trivial) or $(b,fingerprint).")
  in
  let epsilon =
    Arg.(
      value & opt float 0.01
      & info [ "epsilon" ] ~docv:"EPS" ~doc:"Fingerprint error budget.")
  in
  let doc = "Run a protocol on a random instance and count bits." in
  Cmd.v (Cmd.info "protocol" ~doc)
    Term.(ret (const protocol $ n_arg $ k_arg $ seed_arg $ which $ epsilon))

(* ------------------------------------------------------------------ *)
(* bounds                                                              *)
(* ------------------------------------------------------------------ *)

let bounds n k =
  if n <= 0 || k <= 0 then `Error (false, "need positive n, k")
  else begin
    let info = Bounds.info_bits ~n ~k in
    Printf.printf
      "n=%d k=%d\n\
       trivial upper bound        : %d bits\n\
       Theorem 1.1 lower bound    : %.1f bits (constant-explicit)\n\
       randomized upper (eps=.01) : %d bits\n\
       det/rand gap               : %.2fx\n\
       I = k n^2                  : %.0f\n\
       A T^2 >=                   : %.0f\n\
       our T >=                   : %.1f   (Chazelle-Monier: %.0f)\n\
       our AT >=                  : %.0f   (Chazelle-Monier: %.0f)\n"
      n k
      (Bounds.trivial_upper_bits ~n ~k)
      (Bounds.deterministic_lower_bits ~n ~k)
      (Bounds.randomized_upper_bits ~n ~k ~epsilon:0.01)
      (Bounds.deterministic_over_randomized ~n ~k ~epsilon:0.01)
      info
      (Bounds.at2_lower ~info_bits:info)
      (Bounds.our_time_lower ~n ~k)
      (Bounds.chazelle_monier_time_lower ~n)
      (Bounds.our_at_lower ~n ~k)
      (Bounds.chazelle_monier_at_lower ~n);
    `Ok ()
  end

let bounds_cmd =
  let doc = "Print all bound calculators for (n, k)." in
  Cmd.v (Cmd.info "bounds" ~doc) Term.(ret (const bounds $ n_arg $ k_arg))

(* ------------------------------------------------------------------ *)
(* lemmas                                                              *)
(* ------------------------------------------------------------------ *)

let lemmas_id = "lemmas"

let lemmas n k seed trials opts =
  match params_of n k with
  | `Error _ as e -> e
  | `Ok p ->
      (* Full flag parity with bench/main.exe: the cmdliner terms below
         assemble the same Commx_util.Cli.opts record the bench parser
         produces (env fallback included), and every downstream policy
         — supervision, resume, artifact schema, telemetry level — goes
         through the same shared modules. *)
      let opts = Cli.with_env_fault_seed opts in
      let json_dir =
        match (opts.Cli.json_dir, opts.Cli.resume_dir) with
        | (Some _ as d), _ | None, d -> d
      in
      if
        match opts.Cli.resume_dir with
        | Some dir -> Artifact.resume_done ~dir ~id:lemmas_id
        | None -> false
      then begin
        Printf.printf "[resume] %s: ok artifact present, skipping\n" lemmas_id;
        `Ok ()
      end
      else begin
        let faults =
          Option.map (fun s -> Faults.create ~seed:s ()) opts.Cli.fault_seed
        in
        let config =
          Supervisor.config ?timeout_s:opts.Cli.timeout_s
            ~retries:opts.Cli.retries ()
        in
        Telemetry.set_level (Cli.telemetry_level opts);
        let trace_writer =
          Option.map (fun path -> Telemetry.Trace.open_file ~path)
            opts.Cli.trace_file
        in
        let run_trials pool ~attempt =
          Faults.point faults
            ~site:(Printf.sprintf "lemmas:attempt%d" attempt);
          let g = Prng.create seed in
          (* Trials are independent; each draws from a generator split
             off the master seed before the fan-out, so the counts are
             identical at any --jobs value. *)
          Commx_util.Pool.parallel_map_seeded pool g
            (fun g () ->
              let f = H.random_free g p in
              let a32 = L32.agrees p f in
              let w = L35.complete p ~c:f.H.c ~e:f.H.e in
              let a35 = L35.check_witness p w in
              let dim = 2 * n in
              let partition = Partition.random_even g (dim * dim * k) in
              let a39 =
                match L39.find_transform g p partition with
                | Some t ->
                    L39.is_proper p (L39.apply_transform p partition t)
                | None -> false
              in
              (a32, a35, a39))
            (Array.make trials ())
        in
        let counters_before = Telemetry.counters () in
        let t0 = Clock.now_s () in
        let outcome, attempts =
          Fun.protect
            ~finally:(fun () ->
              match trace_writer with
              | Some w ->
                  (try Telemetry.Trace.flush w (Telemetry.drain_events ())
                   with e ->
                     Telemetry.Trace.abort w;
                     raise e);
                  Telemetry.Trace.close w
              | None -> ())
            (fun () ->
              Commx_util.Pool.with_pool ~jobs:opts.Cli.jobs (fun pool ->
                  Commx_util.Pool.set_faults pool faults;
                  Telemetry.with_span "experiment" ~args:[ ("id", lemmas_id) ]
                    (fun () ->
                      Supervisor.run ~config ~pool ~name:lemmas_id
                        (run_trials pool))))
        in
        let wall_s = Clock.now_s () -. t0 in
        let metrics =
          if Telemetry.metrics_on () then
            Some
              (Artifact.metrics
                 ~counters:
                   (Telemetry.diff_counters ~before:counters_before
                      (Telemetry.counters ()))
                 ~phases:(Telemetry.drain_phases ()))
          else None
        in
        let summarize (results : (bool * bool * bool) array) =
          let count f =
            Array.fold_left (fun a r -> if f r then a + 1 else a) 0 results
          in
          let ok32 = count (fun (a, _, _) -> a)
          and ok35 = count (fun (_, a, _) -> a)
          and ok39 = count (fun (_, _, a) -> a) in
          (ok32, ok35, ok39)
        in
        (match json_dir with
        | Some dir ->
            let status = Supervisor.outcome_label outcome in
            let error =
              match outcome with
              | Supervisor.Ok _ -> Json.Null
              | Supervisor.Failed { exn; _ } -> Json.String exn
              | Supervisor.Timed_out budget ->
                  Json.String
                    (Printf.sprintf "deadline exceeded (%.3f s budget)" budget)
            in
            let report_fields =
              match outcome with
              | Supervisor.Ok results ->
                  let ok32, ok35, ok39 = summarize results in
                  [ ("title",
                     Json.String "Lemmas 3.2 / 3.5(a) / 3.9 spot-check");
                    ("params",
                     Json.Obj
                       [ ("n", Json.Int n); ("k", Json.Int k);
                         ("seed", Json.Int seed); ("trials", Json.Int trials) ]);
                    ("rows",
                     Json.List
                       [ Json.Obj
                           [ ("lemma_32_ok", Json.Int ok32);
                             ("lemma_35_ok", Json.Int ok35);
                             ("lemma_39_ok", Json.Int ok39);
                             ("trials", Json.Int trials) ] ]);
                    ("fits", Json.Obj []) ]
              | _ ->
                  [ ("title", Json.Null); ("params", Json.Obj []);
                    ("rows", Json.List []); ("fits", Json.Obj []) ]
            in
            Artifact.write ~dir ~id:lemmas_id ~jobs:opts.Cli.jobs ~wall_s
              ~attempts ~status ~error ?metrics ~report_fields ();
            Printf.printf "[json] wrote %s (status: %s)\n"
              (Artifact.path ~dir ~id:lemmas_id)
              status
        | None -> ());
        if opts.Cli.metrics then Telemetry.print_summary stdout;
        match outcome with
        | Supervisor.Ok results ->
            let ok32, ok35, ok39 = summarize results in
            Printf.printf
              "lemma 3.2 (criterion = ground truth): %d/%d\n\
               lemma 3.5 (completion singular)     : %d/%d\n\
               lemma 3.9 (proper transform found)  : %d/%d\n"
              ok32 trials ok35 trials ok39 trials;
            `Ok ()
        | Supervisor.Failed { exn; _ } ->
            let msg =
              Printf.sprintf "lemmas failed after %d attempt(s): %s" attempts
                exn
            in
            if opts.Cli.keep_going then begin
              (* Parity with bench --keep-going: report, don't abort the
                 evaluation — the artifact carries the failure. *)
              Printf.eprintf "%s\n" msg;
              `Ok ()
            end
            else `Error (false, msg)
        | Supervisor.Timed_out budget ->
            let msg =
              Printf.sprintf "lemmas timed out (%.3f s budget, %d attempt(s))"
                budget attempts
            in
            if opts.Cli.keep_going then begin
              Printf.eprintf "%s\n" msg;
              `Ok ()
            end
            else `Error (false, msg)
      end

(* The shared-options cmdliner term: one Arg per Commx_util.Cli flag,
   assembled into the same opts record Cli.parse produces, with the
   same defaults (Cli.defaults) — so `ccmx lemmas --help` documents
   every bench/main flag and validation cannot drift. *)
let cli_opts_term =
  let jobs =
    Arg.(
      value & opt int Cli.defaults.Cli.jobs
      & info [ "jobs" ] ~docv:"J"
          ~doc:
            "Worker domains for the trial loop (default: 1).  Results \
             are deterministic in the seed regardless of $(docv).")
  in
  let json =
    Arg.(
      value
      & opt (some string) Cli.defaults.Cli.json_dir
      & info [ "json" ] ~docv:"DIR"
          ~doc:
            "Write a schema-v3 BENCH_lemmas.json artifact (status, \
             metrics, measurements) into $(docv) (default: off).")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) Cli.defaults.Cli.timeout_s
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-attempt time budget on the monotonic clock (default: \
             none); the trial loop is cancelled cooperatively when it \
             expires.")
  in
  let retries =
    Arg.(
      value & opt int Cli.defaults.Cli.retries
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra attempts for retryable (injected) failures \
             (default: 0).")
  in
  let keep_going =
    Arg.(
      value & flag
      & info [ "keep-going" ]
          ~doc:
            "Record a failed or timed-out run in the artifact and exit \
             0 instead of failing (default: off).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) Cli.defaults.Cli.resume_dir
      & info [ "resume" ] ~docv:"DIR"
          ~doc:
            "Skip the run if $(docv) already holds a valid status-ok \
             BENCH_lemmas.json; implies writing artifacts there \
             (default: off).")
  in
  let inject_faults =
    Arg.(
      value
      & opt (some int) Cli.defaults.Cli.fault_seed
      & info [ "inject-faults" ] ~docv:"SEED"
          ~doc:
            (Printf.sprintf
               "Deterministically inject faults into pool tasks \
                (default: off; also read from $(b,%s))."
               Cli.fault_seed_env_var))
  in
  let trace =
    Arg.(
      value
      & opt (some string) Cli.defaults.Cli.trace_file
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of the run to $(docv) \
             (open in chrome://tracing or Perfetto; default: off).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the telemetry counter/histogram summary at end of \
             run (default: off).")
  in
  let build jobs json_dir timeout_s retries keep_going resume_dir fault_seed
      trace_file metrics =
    if jobs < 1 then `Error (false, "--jobs must be >= 1")
    else
      `Ok
        { Cli.defaults with
          Cli.jobs; json_dir; timeout_s; retries; keep_going; resume_dir;
          fault_seed; trace_file; metrics }
  in
  Term.(
    term_result' ~usage:false
      (const (fun a b c d e f g h i ->
           match build a b c d e f g h i with
           | `Ok v -> Ok v
           | `Error (_, msg) -> Error msg)
      $ jobs $ json $ timeout $ retries $ keep_going $ resume $ inject_faults
      $ trace $ metrics))

let lemmas_cmd =
  let trials =
    Arg.(
      value & opt int 20
      & info [ "trials" ] ~docv:"T" ~doc:"Trials (default: 20).")
  in
  let doc = "Spot-check Lemmas 3.2, 3.5(a) and 3.9 on random instances." in
  Cmd.v (Cmd.info "lemmas" ~doc)
    Term.(
      ret (const lemmas $ n_arg $ k_arg $ seed_arg $ trials $ cli_opts_term))

(* ------------------------------------------------------------------ *)
(* ledger                                                              *)
(* ------------------------------------------------------------------ *)

let ledger n k proper =
  match params_of n k with
  | `Error _ as e -> e
  | `Ok p ->
      let l =
        if proper then Commx_core.Theorem11.proper_partition_ledger p
        else Commx_core.Theorem11.ledger p
      in
      Format.printf "%a@." Commx_core.Theorem11.pp l;
      `Ok ()

let ledger_cmd =
  let proper =
    Arg.(
      value & flag
      & info [ "proper" ]
          ~doc:
            "Use the arbitrary-even-partition (Definition 3.8) variant \
             instead of the pi_0 ledger.")
  in
  let doc = "Print the Theorem 1.1 accounting ledger for (n, k)." in
  Cmd.v (Cmd.info "ledger" ~doc)
    Term.(ret (const ledger $ n_arg $ k_arg $ proper))

(* ------------------------------------------------------------------ *)
(* exactcc                                                             *)
(* ------------------------------------------------------------------ *)

let exactcc k =
  if k < 1 || k > 1 then
    `Error (false, "only k = 1 is enumerable within the search limits")
  else begin
    let inputs = List.init 4 (fun v -> (v lsr 1, v land 1)) in
    let tm =
      Commx_comm.Truth_matrix.build inputs inputs (fun (a, c) (b, d) ->
          (a * d) - (b * c) = 0)
    in
    let cc = Commx_comm.Exact_cc.complexity_tm tm in
    let m = Commx_comm.Truth_matrix.to_bitmat tm in
    let d = Commx_comm.Cover.min_partition m in
    Printf.printf
      "singularity of 2x2 matrices of %d-bit entries under pi_0:\n\
       exact deterministic CC : %d bits\n\
       d(f) (min partition)   : %d  (Yao: CC >= log2 d = %.2f)\n\
       min 1-cover / 0-cover  : %d / %d\n"
      k cc d
      (log (float_of_int d) /. log 2.0)
      (Commx_comm.Cover.min_one_cover m)
      (Commx_comm.Cover.min_zero_cover m);
    `Ok ()
  end

let exactcc_cmd =
  let doc =
    "Exact deterministic communication complexity of the tiny \
     singularity instance (exhaustive over all protocols)."
  in
  Cmd.v (Cmd.info "exactcc" ~doc) Term.(ret (const exactcc $ k_arg))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve socket workers snapshot cache_capacity table_budget max_queue
    drain_timeout request_timeout write_timeout max_line_bytes snapshot_every
    chaos_seed chaos_rate respawn_budget respawn_window metrics_socket
    metrics_port log_file log_level slow_ms trace_ring trace_dump =
  let chaos =
    Option.map
      (fun seed -> Faults.create ~seed ~rate:chaos_rate ~delay_rate:0.0 ())
      chaos_seed
  in
  match Logging.level_of_string log_level with
  | None -> `Error (false, Printf.sprintf "unknown log level %S" log_level)
  | Some level -> (
      let logger =
        match log_file with
        | Some path ->
            Logging.create ~level ~sink:(Logging.file_sink ~path) ()
        | None -> Logging.create ~level ()
      in
      match
        Server.config ~socket_path:socket ~workers ?snapshot_path:snapshot
          ~cache_capacity ?table_budget ~max_queue
          ~drain_timeout_s:drain_timeout ?request_timeout_s:request_timeout
          ~write_timeout_s:write_timeout ~max_line_bytes
          ?snapshot_every_s:snapshot_every ~respawn_budget
          ~respawn_window_s:respawn_window ?chaos ~logger ?metrics_socket
          ?metrics_port ?slow_ms ~trace_ring ?trace_dump_path:trace_dump ()
      with
      | exception Invalid_argument msg -> `Error (false, msg)
      | config -> (
          (* The acceptor polls this flag between select rounds, so the
             handlers only flip it: the daemon then drains in-flight work
             and snapshots instead of dying mid-request. *)
          let stop = Atomic.make false in
          let request_stop _ = Atomic.set stop true in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
          Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
          (* Metrics feed the stats op and /metrics: latency histograms,
             exact_cc.* and channel bit counters. *)
          Telemetry.set_level Telemetry.Metrics;
          (* Supervisor retry notices join the same structured stream,
             so --log-file captures every daemon event. *)
          Supervisor.set_log_sink (fun r ->
              Logging.warn logger
                ~fields:
                  [ ("name", Json.String r.Supervisor.name);
                    ("attempt", Json.Int r.Supervisor.attempt) ]
                (Printf.sprintf
                   "%s: attempt %d failed (%s), retrying in %.2fs"
                   r.Supervisor.name r.Supervisor.attempt r.Supervisor.exn
                   r.Supervisor.pause_s));
          match Server.run ~stop config with
          | () -> `Ok ()
          | exception Server.Fatal msg ->
              (* Drained and snapshotted already; the nonzero exit is
                 the signal a process supervisor restarts on. *)
              `Error (false, "serve: " ^ msg)
          | exception Unix.Unix_error (err, fn, arg) ->
              `Error
                ( false,
                  Printf.sprintf "serve: %s(%s): %s" fn arg
                    (Unix.error_message err) )))

let serve_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Unix-domain socket to listen on (any stale file there is \
             replaced).")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"W"
          ~doc:
            "Worker domains; each owns one transposition-table segment \
             and exact-CC queries route to segments by content, so the \
             same matrix always finds its warm entries (default: 2).")
  in
  let snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Persist the warm state (result cache, table segments, key \
             tags) to $(docv) on graceful shutdown and load it on start \
             (written atomically; corrupt or version-mismatched files \
             are rejected and the daemon starts cold; default: off).")
  in
  let cache_capacity =
    Arg.(
      value & opt int 1024
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Result-cache entries, FIFO-evicted (default: 1024).")
  in
  let table_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "table-budget" ] ~docv:"N"
          ~doc:
            "Per-segment transposition-table entry budget; beyond it \
             the table evicts instead of growing (default: unbounded).")
  in
  let max_queue =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission bound per worker queue; requests beyond it get \
             an immediate overload error (default: 64).")
  in
  let drain_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "drain-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Max wait for in-flight requests on shutdown (default: 30).")
  in
  let request_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Default compute deadline per request; searches that exceed \
             it answer a timed_out error carrying the bounds certified \
             so far.  A request's own deadline_ms can only tighten it \
             (default: none).")
  in
  let write_timeout =
    Arg.(
      value & opt float 5.0
      & info [ "write-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Max wall time for one reply write; a client that stops \
             reading is disconnected instead of parking a worker \
             (default: 5).")
  in
  let max_line_bytes =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-line-bytes" ] ~docv:"N"
          ~doc:
            "Request-line size bound; larger lines get a line_too_long \
             error and are skipped, the connection survives (default: \
             1048576).")
  in
  let snapshot_every =
    Arg.(
      value
      & opt (some float) None
      & info [ "snapshot-every" ] ~docv:"SECONDS"
          ~doc:
            "Also rewrite the --snapshot file every $(docv) seconds \
             while serving, so a crash loses at most one interval of \
             warmth (default: only on graceful shutdown).")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED"
          ~doc:
            "Arm deterministic fault injection at the serve chaos sites \
             (worker crashes, cache-insert failures, snapshot-write \
             failures), seeded by $(docv).  The same seed reproduces \
             the same fault pattern in every run (default: off).")
  in
  let chaos_rate =
    Arg.(
      value & opt float 0.05
      & info [ "chaos-rate" ] ~docv:"RATE"
          ~doc:
            "Raise probability per chaos site when --chaos is armed \
             (default: 0.05).")
  in
  let respawn_budget =
    Arg.(
      value & opt int 3
      & info [ "respawn-budget" ] ~docv:"N"
          ~doc:
            "Crashed-worker respawns allowed per sliding window before \
             the daemon gives up and exits nonzero (default: 3).")
  in
  let respawn_window =
    Arg.(
      value & opt float 60.0
      & info [ "respawn-window" ] ~docv:"SECONDS"
          ~doc:"Sliding window for --respawn-budget (default: 60).")
  in
  let metrics_socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-socket" ] ~docv:"PATH"
          ~doc:
            "Also listen on this Unix socket for GET /metrics \
             (Prometheus text format) and GET /healthz (JSON \
             readiness); any stale file there is replaced (default: \
             off).")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Also serve /metrics and /healthz on 127.0.0.1:$(docv) \
             (loopback only; default: off).")
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-file" ] ~docv:"FILE"
          ~doc:
            "Append structured JSON log lines to $(docv) instead of \
             stderr (created with parents, flushed per line; default: \
             stderr).")
  in
  let log_level =
    Arg.(
      value & opt string "info"
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Minimum severity to log: error, warn, info or debug \
             (default: info).")
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-query threshold: any request slower than $(docv) \
             milliseconds logs one slow_query warn line with its key \
             tag, nodes, table hits, certified bounds and outcome \
             (default: off).")
  in
  let trace_ring =
    Arg.(
      value & opt int 256
      & info [ "trace-ring" ] ~docv:"N"
          ~doc:
            "Flight-recorder capacity: keep the span chains of the \
             last $(docv) completed requests for the dump_trace op \
             (0 disables recording; default: 256).")
  in
  let trace_dump =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-dump" ] ~docv:"FILE"
          ~doc:
            "Dump the flight recorder to $(docv) as Chrome trace JSON \
             on worker crash and on fatal exit (default: off).")
  in
  let doc =
    "Long-running CC-oracle daemon on a Unix socket: JSON-lines \
     queries (exact CC, singularity, Lemma 3.2, lower bounds, protocol \
     runs) answered concurrently across domains, with a shared warm \
     transposition-table arrangement and a content-addressed result \
     cache that survive across requests — and, with --snapshot, across \
     restarts.  SIGTERM/SIGINT drain gracefully.  Observability: \
     --metrics-socket/--metrics-port (Prometheus + /healthz), \
     --log-file/--log-level (structured JSON logs), --slow-ms \
     (slow-query log), --trace-ring/--trace-dump (flight recorder)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const serve $ socket $ workers $ snapshot $ cache_capacity
       $ table_budget $ max_queue $ drain_timeout $ request_timeout
       $ write_timeout $ max_line_bytes $ snapshot_every $ chaos_seed
       $ chaos_rate $ respawn_budget $ respawn_window $ metrics_socket
       $ metrics_port $ log_file $ log_level $ slow_ms $ trace_ring
       $ trace_dump))

(* ------------------------------------------------------------------ *)
(* query — one request against a running serve daemon                   *)
(* ------------------------------------------------------------------ *)

let parse_bit_rows s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun r -> r <> "")

let parse_int_rows s =
  String.split_on_char ';' s
  |> List.map (fun row ->
         String.split_on_char ',' row |> List.map String.trim
         |> List.filter (fun e -> e <> ""))
  |> List.filter (fun r -> r <> [])

let query socket op matrix int_matrix n k seed proto epsilon no_cache
    deadline_ms timeout connect_timeout retries backoff jitter_seed verbose =
  let fields = ref [] in
  let add name v = fields := (name, v) :: !fields in
  Option.iter
    (fun s ->
      add "matrix"
        (Json.List
           (parse_int_rows s
           |> List.map (fun row ->
                  Json.List (List.map (fun e -> Json.String e) row)))))
    int_matrix;
  Option.iter
    (fun s ->
      add "matrix"
        (Json.List (List.map (fun r -> Json.String r) (parse_bit_rows s))))
    matrix;
  Option.iter (fun v -> add "n" (Json.Int v)) n;
  Option.iter (fun v -> add "k" (Json.Int v)) k;
  Option.iter (fun v -> add "seed" (Json.Int v)) seed;
  Option.iter (fun v -> add "protocol" (Json.String v)) proto;
  Option.iter (fun v -> add "epsilon" (Json.Float v)) epsilon;
  if no_cache then add "use_cache" (Json.Bool false);
  let log =
    if verbose then fun msg -> prerr_endline ("query: " ^ msg) else ignore
  in
  match
    Client.create ~socket_path:socket ~connect_timeout_s:connect_timeout
      ?request_timeout_s:timeout ~retries ~backoff_s:backoff ~jitter_seed ~log
      ()
  with
  | exception Invalid_argument msg -> `Error (false, msg)
  | client -> (
      let result = Client.request client ?deadline_ms ~op (List.rev !fields) in
      Client.close client;
      match result with
      | Ok reply ->
          print_string (Wire.to_line reply);
          `Ok ()
      | Error (Client.Server_error { reply; _ } as e) ->
          (* The error reply is still the JSON the caller asked for;
             the exit code carries the verdict. *)
          print_string (Wire.to_line reply);
          `Error (false, "query: " ^ Client.error_to_string e)
      | Error e -> `Error (false, "query: " ^ Client.error_to_string e))

let query_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of the running daemon.")
  in
  let op =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:
            "Operation: ping, stats, shutdown, exact_cc, lower_bounds, \
             singular, lemma32 or protocol.")
  in
  let matrix =
    Arg.(
      value
      & opt (some string) None
      & info [ "matrix" ] ~docv:"ROWS"
          ~doc:
            "Boolean matrix as comma-separated rows of 0/1 characters \
             (e.g. 01,10) — for exact_cc and lower_bounds.")
  in
  let int_matrix =
    Arg.(
      value
      & opt (some string) None
      & info [ "int-matrix" ] ~docv:"ROWS"
          ~doc:
            "Integer matrix: rows separated by ';', entries by ',' \
             (e.g. 1,2;3,4) — for singular.")
  in
  let n =
    Arg.(
      value
      & opt (some int) None
      & info [ "n" ] ~docv:"N" ~doc:"Half-dimension for lemma32/protocol.")
  in
  let k =
    Arg.(
      value
      & opt (some int) None
      & info [ "k" ] ~docv:"K" ~doc:"Bits per entry for lemma32/protocol.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Instance seed for lemma32/protocol.")
  in
  let proto =
    Arg.(
      value
      & opt (some string) None
      & info [ "protocol" ] ~docv:"NAME"
          ~doc:"Protocol for the protocol op: trivial or fingerprint.")
  in
  let epsilon =
    Arg.(
      value
      & opt (some float) None
      & info [ "epsilon" ] ~docv:"EPS"
          ~doc:"Error bound for the fingerprint protocol.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Bypass the daemon's result cache (the warm transposition \
             table is still used).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Server-side compute deadline for this request; past it the \
             daemon answers timed_out with the bounds certified so far.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Client-side wall budget per attempt (default: wait \
             forever).  Timeouts are never retried.")
  in
  let connect_timeout =
    Arg.(
      value & opt float 5.0
      & info [ "connect-timeout" ] ~docv:"SECONDS"
          ~doc:"Connect timeout per attempt (default: 5).")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra attempts after the first, for transport failures and \
             transient server errors (default: 2).")
  in
  let backoff =
    Arg.(
      value & opt float 0.05
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:
            "Base retry pause; attempt i waits backoff * 2^(i-1) plus \
             deterministic jitter (default: 0.05).")
  in
  let jitter_seed =
    Arg.(
      value & opt int 0
      & info [ "jitter-seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the deterministic backoff jitter (default: 0).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"Log retries and breaker events to stderr.")
  in
  let doc =
    "Send one query to a running $(b,ccmx serve) daemon and print the \
     JSON reply, with connect/request timeouts, bounded jittered retry \
     and a circuit breaker (exit status is nonzero on any error reply \
     or transport failure)."
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      ret
        (const query $ socket $ op $ matrix $ int_matrix $ n $ k $ seed
       $ proto $ epsilon $ no_cache $ deadline_ms $ timeout
       $ connect_timeout $ retries $ backoff $ jitter_seed $ verbose))

(* ------------------------------------------------------------------ *)
(* top — live dashboard over the stats op                              *)
(* ------------------------------------------------------------------ *)

let jint ?(default = 0) obj key =
  match Json.member key obj with Some (Json.Int v) -> v | _ -> default

let jfloat ?(default = 0.0) obj key =
  match Json.member key obj with
  | Some (Json.Float v) -> v
  | Some (Json.Int v) -> float_of_int v
  | _ -> default

let jbool ?(default = false) obj key =
  match Json.member key obj with Some (Json.Bool v) -> v | _ -> default

let render_top ~socket ~breaker reply ~qps =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let sub key =
    match Json.member key reply with
    | Some (Json.Obj _ as o) -> o
    | _ -> Json.Obj []
  in
  let lat = sub "latency_us" and rc = sub "result_cache" and tb = sub "table" in
  line "ccmx top — %s    uptime %.1fs    breaker %s" socket
    (jfloat reply "uptime_s") breaker;
  line "requests %d (%.1f/s)    errors %d    workers %d/%d"
    (jint reply "requests") qps (jint reply "errors")
    (jint reply "workers_alive") (jint reply "workers");
  let ch = jint rc "hits" and cm = jint rc "misses" in
  let hit_pct =
    if ch + cm = 0 then 0.0
    else 100.0 *. float_of_int ch /. float_of_int (ch + cm)
  in
  line
    "result cache: %.1f%% hit (%d hits / %d misses, %d/%d entries, %d \
     evicted)"
    hit_pct ch cm (jint rc "entries") (jint rc "capacity")
    (jint rc "evictions");
  line "table: %d hits, %d misses, %d stores, %d evictions, %d entries"
    (jint tb "hits") (jint tb "misses") (jint tb "stores")
    (jint tb "evictions") (jint tb "entries");
  line "latency (all ops): count %d  p50 %.0fus  p95 %.0fus  p99 %.0fus"
    (jint lat "count") (jfloat lat "p50") (jfloat lat "p95")
    (jfloat lat "p99");
  (match Json.member "ops" reply with
  | Some (Json.Obj kvs) when kvs <> [] ->
      line "";
      line "%-16s %8s %10s %10s %10s" "op" "count" "p50(us)" "p95(us)"
        "p99(us)";
      List.iter
        (fun (op, o) ->
          line "%-16s %8d %10.0f %10.0f %10.0f" op (jint o "count")
            (jfloat o "p50_us") (jfloat o "p95_us") (jfloat o "p99_us"))
        kvs
  | _ -> ());
  (match Json.member "queues" reply with
  | Some (Json.List ws) when ws <> [] ->
      line "";
      line "%-8s %8s %10s %7s" "worker" "queued" "inflight" "alive";
      List.iter
        (fun w ->
          line "%-8d %8d %10d %7s" (jint w "worker") (jint w "queued")
            (jint w "inflight")
            (if jbool w "alive" then "yes" else "NO"))
        ws
  | _ -> ());
  (match Json.member "counters" reply with
  | Some (Json.Obj _ as cs) ->
      line "";
      line
        "crashes %d  respawns %d  overloaded %d  timeouts %d  slow %d  \
         snapshots %d"
        (jint cs "serve.worker_crashes")
        (jint cs "serve.worker_respawns")
        (jint cs "serve.overloaded")
        (jint cs "serve.deadline_timeouts")
        (jint cs "serve.slow_queries")
        (jint cs "serve.snapshots_written")
  | _ -> ());
  Buffer.contents buf

let top socket interval count once =
  if interval <= 0.0 then `Error (false, "--interval must be > 0")
  else
    match Client.create ~socket_path:socket () with
    | exception Invalid_argument msg -> `Error (false, msg)
    | client ->
        (* Clearing the screen only makes sense for a live terminal;
           piped output gets plain appended frames. *)
        let clear = (not once) && Unix.isatty Unix.stdout in
        let prev = ref None in
        let rec go i =
          match Client.stats client with
          | Error e ->
              Client.close client;
              `Error (false, "top: " ^ Client.error_to_string e)
          | Ok reply ->
              let now = Clock.now_s () in
              let requests = jint reply "requests" in
              (* qps from the request-counter delta between polls, so
                 it reflects all clients, not just this one. *)
              let qps =
                match !prev with
                | Some (r0, t0) when now > t0 ->
                    float_of_int (requests - r0) /. (now -. t0)
                | _ -> 0.0
              in
              prev := Some (requests, now);
              if clear then print_string "\027[2J\027[H";
              print_string
                (render_top ~socket ~breaker:(Client.breaker_state client)
                   reply ~qps);
              flush stdout;
              if once || (count > 0 && i + 1 >= count) then begin
                Client.close client;
                `Ok ()
              end
              else begin
                Clock.sleepf interval;
                go (i + 1)
              end
        in
        go 0

let top_cmd =
  let socket =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of the running daemon.")
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Refresh period (default: 2).")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop after $(docv) refreshes (default: run until ^C).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print a single snapshot without clearing and exit.")
  in
  let doc =
    "Live terminal dashboard for a running $(b,ccmx serve) daemon: \
     polls the stats op and shows request rate, per-op latency \
     quantiles, queue depths, cache hit rate, worker liveness and \
     robustness counters."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(ret (const top $ socket $ interval $ count $ once))

(* ------------------------------------------------------------------ *)
(* check — differential fuzzing                                        *)
(* ------------------------------------------------------------------ *)

let check_id = "check"

let print_report ~seed ~count (r : Runner.report) =
  match r.Runner.outcome with
  | Runner.Pass ->
      Printf.printf "ok   %-32s %4d cases  %6.2fs\n" r.Runner.name
        r.Runner.cases r.Runner.wall_s
  | Runner.Failed f ->
      Printf.printf
        "FAIL %s (case %d, case-seed %d): %s\n\
        \  counterexample (%d shrink steps): %s\n\
        \  original: %s\n\
        \  replay: ccmx check --seed %d --count %d --filter '%s'\n"
        r.Runner.name f.Runner.case_index f.Runner.case_seed f.Runner.message
        f.Runner.shrink_steps f.Runner.counterexample f.Runner.original seed
        count r.Runner.name

let check_fuzz seed count budget filter list_only opts =
  if list_only then begin
    List.iter
      (fun p -> print_endline (Commx_check.Property.name p))
      (Suite.all ());
    `Ok ()
  end
  else begin
    let opts = Cli.with_env_fault_seed opts in
    Telemetry.set_level (Cli.telemetry_level opts);
    let json_dir =
      match (opts.Cli.json_dir, opts.Cli.resume_dir) with
      | (Some _ as d), _ | None, d -> d
    in
    if
      match opts.Cli.resume_dir with
      | Some dir -> Artifact.resume_done ~dir ~id:check_id
      | None -> false
    then begin
      Printf.printf "[resume] %s: ok artifact present, skipping\n" check_id;
      `Ok ()
    end
    else begin
      (* --timeout doubles as the per-property budget when --budget is
         absent, keeping flag semantics close to the supervised
         subcommands; the runner itself is sequential. *)
      let budget_s =
        match budget with Some _ as b -> b | None -> opts.Cli.timeout_s
      in
      let counters_before = Telemetry.counters () in
      let trace_writer =
        Option.map
          (fun path -> Telemetry.Trace.open_file ~path)
          opts.Cli.trace_file
      in
      let t0 = Clock.now_s () in
      let reports =
        Fun.protect
          ~finally:(fun () ->
            match trace_writer with
            | Some w ->
                (try Telemetry.Trace.flush w (Telemetry.drain_events ())
                 with e ->
                   Telemetry.Trace.abort w;
                   raise e);
                Telemetry.Trace.close w
            | None -> ())
          (fun () ->
            Telemetry.with_span "experiment" ~args:[ ("id", check_id) ]
              (fun () ->
                Runner.run ?budget_s ?filter ~seed ~count (Suite.all ())))
      in
      let wall_s = Clock.now_s () -. t0 in
      List.iter (print_report ~seed ~count) reports;
      let failed =
        List.filter
          (fun r ->
            match r.Runner.outcome with
            | Runner.Failed _ -> true
            | Runner.Pass -> false)
          reports
      in
      (match json_dir with
      | Some dir ->
          let status = if failed = [] then "ok" else "failed" in
          let error =
            if failed = [] then Json.Null
            else
              Json.String
                (Printf.sprintf "%d of %d properties diverged"
                   (List.length failed) (List.length reports))
          in
          let metrics =
            if Telemetry.metrics_on () then
              Some
                (Artifact.metrics
                   ~counters:
                     (Telemetry.diff_counters ~before:counters_before
                        (Telemetry.counters ()))
                   ~phases:(Telemetry.drain_phases ()))
            else None
          in
          let row (r : Runner.report) =
            let base =
              [
                ("property", Json.String r.Runner.name);
                ("cases", Json.Int r.Runner.cases);
                ("wall_s", Json.Float r.Runner.wall_s);
              ]
            in
            match r.Runner.outcome with
            | Runner.Pass -> Json.Obj (("status", Json.String "ok") :: base)
            | Runner.Failed f ->
                Json.Obj
                  (("status", Json.String "failed")
                  :: ("case_index", Json.Int f.Runner.case_index)
                  :: ("case_seed", Json.Int f.Runner.case_seed)
                  :: ("message", Json.String f.Runner.message)
                  :: ("counterexample", Json.String f.Runner.counterexample)
                  :: ("shrink_steps", Json.Int f.Runner.shrink_steps)
                  :: base)
          in
          let report_fields =
            [
              ( "title",
                Json.String "Differential fuzzing: kernels vs. oracles" );
              ( "params",
                Json.Obj
                  [
                    ("seed", Json.Int seed);
                    ("count", Json.Int count);
                    ("properties", Json.Int (List.length reports));
                  ] );
              ("rows", Json.List (List.map row reports));
              ("fits", Json.Obj []);
            ]
          in
          Artifact.write ~dir ~id:check_id ~jobs:opts.Cli.jobs ~wall_s
            ~attempts:1 ~status ~error ?metrics ~report_fields ();
          Printf.printf "[json] wrote %s (status: %s)\n"
            (Artifact.path ~dir ~id:check_id)
            status
      | None -> ());
      if opts.Cli.metrics then Telemetry.print_summary stdout;
      let total_cases =
        List.fold_left (fun a r -> a + r.Runner.cases) 0 reports
      in
      Printf.printf "%d properties, %d cases, %d failure(s) (%.2fs, seed %d)\n"
        (List.length reports) total_cases (List.length failed) wall_s seed;
      if failed = [] then `Ok ()
      else begin
        let msg =
          Printf.sprintf "%d of %d properties diverged" (List.length failed)
            (List.length reports)
        in
        if opts.Cli.keep_going then begin
          Printf.eprintf "%s\n" msg;
          `Ok ()
        end
        else `Error (false, msg)
      end
    end
  end

let check_cmd =
  let count =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Cases per property (default: 100).")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Per-property wall-clock budget: stop starting new cases \
             once exceeded (the nightly tier raises --count and bounds \
             time with this; default: none).")
  in
  let filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~docv:"SUBSTR"
          ~doc:"Run only properties whose name contains $(docv).")
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List property names and exit.")
  in
  let doc =
    "Differential fuzzing: seeded generators drive every optimized \
     kernel (bignums, SWAR bit kernels, transposition table, exact-CC \
     search, determinants, Lemma 3.2) against independent oracles, \
     shrinking any divergence to a minimal counterexample.  \
     Deterministic in --seed; the runner is sequential (--jobs is \
     accepted for flag parity)."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      ret
        (const check_fuzz $ seed_arg $ count $ budget $ filter $ list_only
       $ cli_opts_term))

(* ------------------------------------------------------------------ *)
(* bench — throughput benches (load replay)                            *)
(* ------------------------------------------------------------------ *)

let bench_load seed count mix arrival rate jobs socket json deadline_ms =
  match Traffic.parse_mix mix with
  | Error msg -> `Error (false, "invalid --mix: " ^ msg)
  | Ok mix ->
      if count < 0 then `Error (false, "--count must be >= 0")
      else if jobs < 1 then `Error (false, "--jobs must be >= 1")
      else if rate <= 0.0 then `Error (false, "--rate must be > 0")
      else begin
        let arrival =
          match arrival with
          | `Closed -> Traffic.Closed { concurrency = jobs }
          | `Open -> Traffic.Open { rate }
        in
        let target =
          match socket with
          | None -> Load.In_process
          | Some path -> Load.Daemon path
        in
        let cfg =
          { Load.seed; count; mix; arrival; jobs; target; json_dir = json;
            deadline_ms }
        in
        match Load.run cfg with
        | 0 -> `Ok ()
        | _ -> `Error (false, "load replay reported errors (see summary above)")
      end

let bench_load_cmd =
  let count =
    Arg.(
      value & opt int 200
      & info [ "count" ] ~docv:"N"
          ~doc:"Requests to replay (default: 200).")
  in
  let mix =
    Arg.(
      value
      & opt string (Traffic.mix_to_string Traffic.default_mix)
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "Traffic mix as comma-separated kind=weight pairs over \
             exact_cc / singular / lower_bounds / protocol (default: \
             $(b,exact_cc=1,singular=4,lower_bounds=4,protocol=1)).")
  in
  let arrival =
    Arg.(
      value
      & opt (enum [ ("closed", `Closed); ("open", `Open) ]) `Closed
      & info [ "arrival" ] ~docv:"MODEL"
          ~doc:
            "Arrival model: $(b,closed) keeps --jobs requests \
             outstanding (capacity); $(b,open) replays Poisson \
             arrivals at --rate, counting queueing delay against \
             latency (SLO behaviour).")
  in
  let rate =
    Arg.(
      value & opt float 200.0
      & info [ "rate" ] ~docv:"QPS"
          ~doc:"Open-loop offered load, requests/second (default: 200).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"J"
          ~doc:
            "Worker domains replaying the stream (default: 1).  The \
             request stream and the answer digest are identical at any \
             $(docv); only latency and throughput may change.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Replay against the ccmx serve daemon on this Unix socket \
             instead of the in-process engine (default: in-process).")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"DIR"
          ~doc:
            "Write a schema-v3 BENCH_load.json artifact (SLO rows, \
             batch-vs-scalar speedups, answers digest) into $(docv) \
             (default: off).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Per-request compute deadline forwarded to the daemon \
             (default: none; daemon mode only).")
  in
  let doc =
    "Replay a seeded synthetic query mix against the engine or a live \
     daemon, reporting throughput, p50/p95/p99 latency, error and \
     timeout counts, and batch-vs-scalar kernel speedups.  \
     Replay-deterministic: the request stream and the answer digest \
     depend only on --seed/--mix/--arrival/--count."
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      ret
        (const bench_load $ seed_arg $ count $ mix $ arrival $ rate $ jobs
       $ socket $ json $ deadline_ms))

let bench_cmd =
  let doc = "Throughput benches: seeded load replay with latency SLOs." in
  Cmd.group (Cmd.info "bench" ~doc) [ bench_load_cmd ]

(* ------------------------------------------------------------------ *)

let () =
  (* Supervised `lemmas` runs record backtraces in Failed outcomes;
     they are empty unless recording is on. *)
  Printexc.record_backtrace true;
  let doc =
    "communication complexity of matrix computation (Chu-Schnitger \
     1989) — reproduction toolkit"
  in
  let info = Cmd.info "ccmx" ~version:"1.0.0" ~doc in
  (* run_main: ignore SIGPIPE and turn a broken stdout pipe
     (`ccmx ... | head`) into a quiet exit 0 instead of a fatal
     signal. *)
  Sigguard.run_main (fun () ->
      exit
        (Cmd.eval
           (Cmd.group info
              [ gen_cmd; singular_cmd; check_cmd; protocol_cmd; bounds_cmd;
                lemmas_cmd; ledger_cmd; exactcc_cmd; serve_cmd; query_cmd;
                top_cmd; bench_cmd ])))
