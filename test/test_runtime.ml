(* Tests for the resilient experiment runtime: Pool cancellation and
   deadlines, the deterministic fault injector, the supervisor's
   ok / failed / timed_out / retry classification, the shared harness
   flag parser, and atomic JSON artifact IO. *)

module Pool = Commx_util.Pool
module Clock = Commx_util.Clock
module Prng = Commx_util.Prng
module Faults = Commx_util.Faults
module Supervisor = Commx_util.Supervisor
module Cli = Commx_util.Cli
module Json = Commx_util.Json
module Telemetry = Commx_util.Telemetry

(* ------------------------------------------------------------------ *)
(* Pool: cancellation and failure paths                                *)
(* ------------------------------------------------------------------ *)

let test_pool_precancelled_token () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let token = Pool.Token.create () in
      Pool.Token.cancel token;
      let executed = Atomic.make 0 in
      Alcotest.check_raises "cancelled batch raises" Pool.Cancelled (fun () ->
          Pool.parallel_for pool ~chunk:1 ~cancel:token 100 (fun _ ->
              Atomic.incr executed));
      Alcotest.(check int) "no item ran" 0 (Atomic.get executed);
      (* the pool survives a cancelled batch *)
      Alcotest.(check (array int)) "pool survives" [| 0; 2; 4 |]
        (Pool.parallel_map pool (fun i -> 2 * i) [| 0; 1; 2 |]))

let test_pool_deadline_fires () =
  Pool.with_pool ~jobs:2 (fun pool ->
      (* deadlines are instants on the monotonic clock (Clock.now_s),
         NOT wall-clock epoch seconds: an epoch-based deadline would sit
         ~56 years in the monotonic future and never fire. *)
      let token =
        Pool.Token.create ~deadline:(Clock.now_s () +. 0.05) ()
      in
      let executed = Atomic.make 0 in
      let t0 = Clock.now_s () in
      Alcotest.check_raises "deadline raises Cancelled" Pool.Cancelled
        (fun () ->
          (* 400 deliberately slow items: ~2 s sequential, the deadline
             must cut the batch off between chunks near 0.05 s. *)
          Pool.parallel_for pool ~chunk:1 ~cancel:token 400 (fun _ ->
              Atomic.incr executed;
              Unix.sleepf 0.005));
      let elapsed = Clock.now_s () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "stopped early (%.3f s, %d items)" elapsed
           (Atomic.get executed))
        true
        (elapsed < 1.0 && Atomic.get executed < 400))

let test_pool_failure_stops_remaining_chunks () =
  (* jobs = 1 runs chunks inline and in order: after item 0 raises, no
     further chunk may start. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let executed = ref 0 in
      Alcotest.check_raises "failure re-raised" (Failure "boom") (fun () ->
          Pool.parallel_for pool ~chunk:1 100 (fun _ ->
              incr executed;
              failwith "boom"));
      Alcotest.(check int) "only the failing chunk ran" 1 !executed);
  (* with helpers, in-flight chunks may finish but the dispenser must
     stop well short of the full range *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let executed = Atomic.make 0 in
      Alcotest.check_raises "failure re-raised" (Failure "boom") (fun () ->
          Pool.parallel_for pool ~chunk:1 10_000 (fun i ->
              Atomic.incr executed;
              if i = 0 then failwith "boom" else Unix.sleepf 0.0002));
      Alcotest.(check bool)
        (Printf.sprintf "remaining chunks cancelled (%d ran)"
           (Atomic.get executed))
        true
        (Atomic.get executed < 10_000))

let test_pool_failure_carries_backtrace () =
  Printexc.record_backtrace true;
  Pool.with_pool ~jobs:2 (fun pool ->
      match
        Pool.parallel_for pool ~chunk:1 8 (fun i ->
            if i = 3 then failwith "with-backtrace")
      with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure _ ->
          (* raise_with_backtrace preserved the worker's trace: the
             caller can read it via the usual API. *)
          let bt = Printexc.get_backtrace () in
          Alcotest.(check bool) "backtrace captured" true
            (String.length bt > 0))

(* The guarantee the resume machinery leans on: a cancelled or failed
   sibling batch must not perturb seeded results of later batches, at
   any job count. *)
let test_pool_seeded_invariant_after_cancelled_sibling () =
  let work g x =
    let acc = ref (float_of_int x) in
    for _ = 1 to 50 do
      acc := !acc +. Prng.float g -. (0.5 *. float_of_int (Prng.int g 3))
    done;
    !acc
  in
  let clean =
    Pool.with_pool ~jobs:1 (fun pool ->
        Pool.parallel_map_seeded pool (Prng.create 77) work
          (Array.init 48 (fun i -> i)))
  in
  List.iter
    (fun jobs ->
      let got =
        Pool.with_pool ~jobs (fun pool ->
            (* sibling batch 1: cancelled mid-flight *)
            let token = Pool.Token.create () in
            Pool.Token.cancel token;
            (try
               Pool.parallel_for pool ~chunk:1 ~cancel:token 100 (fun _ -> ())
             with Pool.Cancelled -> ());
            (* sibling batch 2: fails *)
            (try
               Pool.parallel_for pool ~chunk:1 100 (fun i ->
                   if i = 5 then failwith "sibling")
             with Failure _ -> ());
            Pool.parallel_map_seeded pool (Prng.create 77) work
              (Array.init 48 (fun i -> i)))
      in
      Array.iteri
        (fun i v ->
          if Int64.bits_of_float v <> Int64.bits_of_float clean.(i) then
            Alcotest.failf "jobs=%d element %d differs: %.17g vs %.17g" jobs i
              v clean.(i))
        got)
    [ 1; 2; 4 ]

let test_pool_check_cancel () =
  Pool.with_pool ~jobs:1 (fun pool ->
      (* no token installed: no-op *)
      Pool.check_cancel pool;
      let token = Pool.Token.create () in
      Pool.set_cancel pool (Some token);
      Pool.check_cancel pool;
      Pool.Token.cancel token;
      Alcotest.check_raises "fired token raises" Pool.Cancelled (fun () ->
          Pool.check_cancel pool);
      Pool.set_cancel pool None;
      Pool.check_cancel pool)

(* ------------------------------------------------------------------ *)
(* Faults: deterministic injection                                     *)
(* ------------------------------------------------------------------ *)

let decisions seed sites =
  let f = Faults.create ~seed () in
  List.map (fun site -> Faults.decide f ~site ~rate:0.25 ~delay_rate:0.05) sites

let test_faults_deterministic () =
  let sites = List.init 300 (Printf.sprintf "site-%d") in
  Alcotest.(check bool) "same seed, same pattern" true
    (decisions 42 sites = decisions 42 sites);
  Alcotest.(check bool) "different seed, different pattern" true
    (decisions 42 sites <> decisions 43 sites);
  (* the decision is a pure function of (seed, site): order-free *)
  let f = Faults.create ~seed:7 () in
  let d site = Faults.decide f ~site ~rate:0.5 ~delay_rate:0.0 in
  let first = d "a" in
  ignore (d "b");
  ignore (d "c");
  Alcotest.(check bool) "stateless" true (d "a" = first)

let test_faults_rates () =
  let f = Faults.create ~seed:1 () in
  let sites = List.init 200 (Printf.sprintf "s%d") in
  Alcotest.(check bool) "rate 0 never raises" true
    (List.for_all
       (fun s -> Faults.decide f ~site:s ~rate:0.0 ~delay_rate:0.0 = Faults.Pass)
       sites);
  Alcotest.(check bool) "rate 1 always raises" true
    (List.for_all
       (fun s -> Faults.decide f ~site:s ~rate:1.0 ~delay_rate:0.0 = Faults.Raise)
       sites);
  Alcotest.check_raises "rate out of range"
    (Invalid_argument "Faults.create: rate must be in [0, 1]") (fun () ->
      ignore (Faults.create ~seed:0 ~rate:1.5 ()))

let test_faults_point () =
  Faults.point None ~site:"anything";
  (* rate 1 injector: every entry site raises, payload names the site *)
  let f = Faults.create ~seed:5 ~rate:1.0 () in
  Alcotest.check_raises "entry site raises" (Faults.Injected "E1:attempt1")
    (fun () -> Faults.point (Some f) ~site:"E1:attempt1")

let test_faults_in_pool_tasks () =
  (* pool_rate 1.0: the very first work item of the batch raises
     Injected, and the batch is cancelled like any worker failure *)
  Pool.with_pool ~jobs:2 (fun pool ->
      Pool.set_faults pool (Some (Faults.create ~seed:3 ~pool_rate:1.0 ()));
      (match Pool.parallel_map pool (fun i -> i) (Array.init 32 (fun i -> i)) with
      | _ -> Alcotest.fail "expected Faults.Injected"
      | exception Faults.Injected site ->
          Alcotest.(check bool) "site names batch and item" true
            (String.length site >= 5 && String.sub site 0 5 = "pool:"));
      (* clearing the injector restores normal operation *)
      Pool.set_faults pool None;
      Alcotest.(check (array int)) "clean after clear" [| 0; 1; 2 |]
        (Pool.parallel_map pool (fun i -> i) [| 0; 1; 2 |]))

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let test_supervisor_ok () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let outcome, attempts =
        Supervisor.run ~pool ~name:"t" (fun ~attempt -> attempt * 10)
      in
      (match outcome with
      | Supervisor.Ok v -> Alcotest.(check int) "value" 10 v
      | _ -> Alcotest.fail "expected Ok");
      Alcotest.(check int) "one attempt" 1 attempts;
      Alcotest.(check string) "label" "ok" (Supervisor.outcome_label outcome))

let test_supervisor_failed_not_retryable () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let config = Supervisor.config ~retries:5 ~backoff_s:0.0 () in
      let calls = ref 0 in
      let outcome, attempts =
        Supervisor.run ~config ~pool ~name:"t" (fun ~attempt:_ ->
            incr calls;
            failwith "real bug")
      in
      (match outcome with
      | Supervisor.Failed { exn; _ } ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh
                           && (String.sub hay i nn = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "message kept" true (contains exn "real bug")
      | _ -> Alcotest.fail "expected Failed");
      Alcotest.(check int) "no retry for a real bug" 1 attempts;
      Alcotest.(check int) "called once" 1 !calls;
      Alcotest.(check string) "label" "failed"
        (Supervisor.outcome_label outcome))

let test_supervisor_retry_then_ok () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let config = Supervisor.config ~retries:2 ~backoff_s:0.0 () in
      let outcome, attempts =
        Supervisor.run ~config ~pool ~name:"t" (fun ~attempt ->
            if attempt < 3 then raise (Faults.Injected "transient") else attempt)
      in
      (match outcome with
      | Supervisor.Ok v -> Alcotest.(check int) "succeeded on attempt 3" 3 v
      | _ -> Alcotest.fail "expected Ok after retries");
      Alcotest.(check int) "three attempts" 3 attempts)

let test_supervisor_retries_exhausted () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let config = Supervisor.config ~retries:2 ~backoff_s:0.0 () in
      let outcome, attempts =
        Supervisor.run ~config ~pool ~name:"t" (fun ~attempt:_ ->
            raise (Faults.Injected "always"))
      in
      (match outcome with
      | Supervisor.Failed _ -> ()
      | _ -> Alcotest.fail "expected Failed");
      Alcotest.(check int) "1 + 2 retries" 3 attempts)

let test_supervisor_jitter_deterministic () =
  let j = Supervisor.jitter ~seed:11 ~name:"exp" ~attempt:1 in
  Alcotest.(check bool) "in [0, 1)" true (j >= 0.0 && j < 1.0);
  Alcotest.(check (float 0.0)) "replay is bit-identical" j
    (Supervisor.jitter ~seed:11 ~name:"exp" ~attempt:1);
  Alcotest.(check bool) "attempts desynchronize" true
    (Supervisor.jitter ~seed:11 ~name:"exp" ~attempt:2 <> j);
  Alcotest.(check bool) "names desynchronize" true
    (Supervisor.jitter ~seed:11 ~name:"other" ~attempt:1 <> j);
  Alcotest.(check bool) "seeds desynchronize" true
    (Supervisor.jitter ~seed:12 ~name:"exp" ~attempt:1 <> j);
  (* one primitive shared with fault injection: the documented site *)
  Alcotest.(check (float 0.0)) "defined via Faults.unit_float"
    (Faults.unit_float ~seed:11 ~site:"backoff:exp:1")
    j

let test_supervisor_jittered_backoff_is_replayable () =
  (* Two identically-configured supervised runs must back off with
     bit-identical pauses (the jitter is seeded, not drawn from a
     PRNG), and the pauses must stay inside the documented envelope
     base * [1, 1 + jitter]. *)
  let pauses () =
    let captured = ref [] in
    Supervisor.set_log_sink (fun r -> captured := r.Supervisor.pause_s :: !captured);
    Fun.protect
      ~finally:(fun () -> Supervisor.reset_log_sink ())
      (fun () ->
        Pool.with_pool ~jobs:1 (fun pool ->
            let config =
              Supervisor.config ~retries:2 ~backoff_s:0.01 ~jitter:1.0
                ~jitter_seed:9 ()
            in
            ignore
              (Supervisor.run ~config ~pool ~name:"jittered"
                 (fun ~attempt:_ -> raise (Faults.Injected "always")))));
    List.rev !captured
  in
  let a = pauses () and b = pauses () in
  Alcotest.(check int) "one pause per retry" 2 (List.length a);
  Alcotest.(check bool) "replay is bit-identical" true (a = b);
  List.iteri
    (fun i p ->
      let base = 0.01 *. (2.0 ** float_of_int i) in
      Alcotest.(check bool)
        (Printf.sprintf "pause %d inside the jitter envelope" (i + 1))
        true
        (p >= base && p <= 2.0 *. base))
    a

(* ------------------------------------------------------------------ *)
(* Clock.sleepf: EINTR immunity                                        *)
(* ------------------------------------------------------------------ *)

let test_clock_sleepf_survives_signals () =
  (* Regression: supervisor backoff and injected fault delays used
     Unix.sleepf directly, which returns early when a signal arrives —
     a SIGALRM storm truncated a 150 ms pause to ~20 ms.  Clock.sleepf
     re-sleeps against a monotonic deadline, so the full pause holds no
     matter how often it is interrupted. *)
  let ticks = ref 0 in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> incr ticks)) in
  let old_timer =
    Unix.setitimer Unix.ITIMER_REAL
      { Unix.it_interval = 0.02; it_value = 0.02 }
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL old_timer);
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      let t0 = Clock.now_s () in
      Clock.sleepf 0.15;
      let elapsed = Clock.now_s () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "signals interrupted the sleep (%d ticks)" !ticks)
        true (!ticks >= 2);
      Alcotest.(check bool)
        (Printf.sprintf "full pause held (%.3fs elapsed)" elapsed)
        true
        (elapsed >= 0.145))

(* ------------------------------------------------------------------ *)
(* Supervisor: injectable retry log sink                               *)
(* ------------------------------------------------------------------ *)

let test_supervisor_log_sink_captures_retries () =
  (* The daemon routes retry diagnostics through its structured logger
     instead of raw eprintf; this is the seam it uses. *)
  let captured = ref [] in
  Supervisor.set_log_sink (fun r -> captured := r :: !captured);
  Fun.protect
    ~finally:(fun () -> Supervisor.reset_log_sink ())
    (fun () ->
      Pool.with_pool ~jobs:1 (fun pool ->
          let config = Supervisor.config ~retries:2 ~backoff_s:0.0 () in
          let outcome, attempts =
            Supervisor.run ~config ~pool ~name:"sinked" (fun ~attempt ->
                if attempt < 3 then raise (Faults.Injected "transient")
                else attempt)
          in
          (match outcome with
          | Supervisor.Ok v -> Alcotest.(check int) "succeeded" 3 v
          | _ -> Alcotest.fail "expected Ok after retries");
          Alcotest.(check int) "three attempts" 3 attempts));
  let logs = List.rev !captured in
  Alcotest.(check int) "one log per retry" 2 (List.length logs);
  List.iteri
    (fun i (r : Supervisor.retry_log) ->
      Alcotest.(check string) "experiment name" "sinked" r.Supervisor.name;
      Alcotest.(check int) "attempt number" (i + 1) r.Supervisor.attempt;
      Alcotest.(check bool) "exception text present" true
        (String.length r.Supervisor.exn > 0);
      Alcotest.(check bool) "pause is non-negative" true
        (r.Supervisor.pause_s >= 0.0))
    logs

(* ------------------------------------------------------------------ *)
(* Sigguard: SIGPIPE / broken-pipe hygiene                             *)
(* ------------------------------------------------------------------ *)

let test_sigguard_recognizes_broken_pipes () =
  let bp = Commx_util.Sigguard.is_broken_pipe in
  Alcotest.(check bool) "EPIPE" true
    (bp (Unix.Unix_error (Unix.EPIPE, "write", "")));
  Alcotest.(check bool) "ECONNRESET" true
    (bp (Unix.Unix_error (Unix.ECONNRESET, "write", "")));
  Alcotest.(check bool) "channel-flush Sys_error" true
    (bp (Sys_error "/dev/stdout: Broken pipe"));
  Alcotest.(check bool) "other Unix_error is not" false
    (bp (Unix.Unix_error (Unix.ENOENT, "open", "")));
  Alcotest.(check bool) "other Sys_error is not" false
    (bp (Sys_error "No such file or directory"))

let test_sigguard_write_to_closed_pipe_is_epipe () =
  (* With SIGPIPE ignored, writing into a pipe whose reader is gone
     must surface as a catchable EPIPE — the fact that this test is
     still alive to observe the exception IS the regression check
     (default SIGPIPE disposition would have killed the process). *)
  Commx_util.Sigguard.ignore_sigpipe ();
  let r, w = Unix.pipe () in
  Unix.close r;
  let payload = Bytes.of_string "doomed\n" in
  (match Unix.write w payload 0 (Bytes.length payload) with
  | _ -> Alcotest.fail "write to a readerless pipe succeeded"
  | exception e ->
      Alcotest.(check bool) "EPIPE recognized" true
        (Commx_util.Sigguard.is_broken_pipe e));
  Unix.close w

let test_supervisor_timeout_pool_batch () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let config = Supervisor.config ~timeout_s:0.05 ~retries:3 () in
      let outcome, attempts =
        Supervisor.run ~config ~pool ~name:"t" (fun ~attempt:_ ->
            (* the experiment's own pool batch inherits the ambient
               deadline token *)
            Pool.parallel_for pool ~chunk:1 400 (fun _ -> Unix.sleepf 0.005))
      in
      (match outcome with
      | Supervisor.Timed_out budget ->
          Alcotest.(check (float 1e-9)) "budget reported" 0.05 budget
      | _ -> Alcotest.fail "expected Timed_out");
      Alcotest.(check int) "timeouts are not retried" 1 attempts;
      Alcotest.(check string) "label" "timed_out"
        (Supervisor.outcome_label outcome);
      (* ambient token cleared: the pool is reusable *)
      Pool.check_cancel pool;
      Alcotest.(check (array int)) "pool usable" [| 0; 1 |]
        (Pool.parallel_map pool (fun i -> i) [| 0; 1 |]))

let test_supervisor_timeout_sequential_tick () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let config = Supervisor.config ~timeout_s:0.05 () in
      let outcome, _ =
        Supervisor.run ~config ~pool ~name:"t" (fun ~attempt:_ ->
            (* sequential section polling like Experiments.ctx.tick *)
            while true do
              Unix.sleepf 0.002;
              Pool.check_cancel pool
            done)
      in
      match outcome with
      | Supervisor.Timed_out _ -> ()
      | _ -> Alcotest.fail "expected Timed_out")

let test_supervisor_config_validation () =
  Alcotest.check_raises "timeout_s <= 0"
    (Invalid_argument "Supervisor.config: timeout_s must be > 0") (fun () ->
      ignore (Supervisor.config ~timeout_s:0.0 ()));
  Alcotest.check_raises "retries < 0"
    (Invalid_argument "Supervisor.config: retries must be >= 0") (fun () ->
      ignore (Supervisor.config ~retries:(-1) ()))

(* ------------------------------------------------------------------ *)
(* Cli                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cli_parse_full () =
  match
    Cli.parse
      [ "E3"; "--jobs"; "4"; "--timeout=2.5"; "--retries"; "1"; "--keep-going";
        "--resume"; "/tmp/r"; "--inject-faults"; "9"; "E5"; "--json=out" ]
  with
  | Error m -> Alcotest.failf "unexpected parse error: %s" m
  | Ok (opts, positional) ->
      Alcotest.(check int) "jobs" 4 opts.Cli.jobs;
      Alcotest.(check (option string)) "json" (Some "out") opts.Cli.json_dir;
      Alcotest.(check (option (float 1e-9))) "timeout" (Some 2.5)
        opts.Cli.timeout_s;
      Alcotest.(check int) "retries" 1 opts.Cli.retries;
      Alcotest.(check bool) "keep-going" true opts.Cli.keep_going;
      Alcotest.(check (option string)) "resume" (Some "/tmp/r")
        opts.Cli.resume_dir;
      Alcotest.(check (option int)) "faults" (Some 9) opts.Cli.fault_seed;
      Alcotest.(check (list string)) "positional order" [ "E3"; "E5" ]
        positional

let test_cli_parse_errors () =
  let expect_error argv =
    match Cli.parse argv with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected error on %s" (String.concat " " argv)
  in
  expect_error [ "--jobs"; "0" ];
  expect_error [ "--jobs"; "x" ];
  expect_error [ "--timeout"; "-1" ];
  expect_error [ "--timeout"; "0" ];
  expect_error [ "--retries"; "-2" ];
  expect_error [ "--inject-faults"; "zzz" ];
  expect_error [ "--wat" ];
  expect_error [ "--jobs" ];
  (* a valued flag must not swallow a following flag as its value *)
  expect_error [ "--json"; "--keep-going" ];
  expect_error [ "--resume"; "--json"; "d" ];
  expect_error [ "--keep-going=yes" ]

let test_cli_env_fallback () =
  Unix.putenv Cli.fault_seed_env_var "1234";
  let from_env =
    match Cli.parse [] with
    | Ok (o, _) -> o.Cli.fault_seed
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  (* an explicit flag wins over the environment *)
  let explicit =
    match Cli.parse [ "--inject-faults"; "7" ] with
    | Ok (o, _) -> o.Cli.fault_seed
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  Unix.putenv Cli.fault_seed_env_var "";
  Alcotest.(check (option int)) "env fallback" (Some 1234) from_env;
  Alcotest.(check (option int)) "flag wins" (Some 7) explicit

let test_cli_mkdir_p () =
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "commx-mkdir-%d" (Unix.getpid ()))
  in
  let deep = Filename.concat (Filename.concat base "a") "b" in
  Cli.mkdir_p deep;
  Alcotest.(check bool) "created" true
    (Sys.file_exists deep && Sys.is_directory deep);
  (* idempotent, and fine when every prefix already exists *)
  Cli.mkdir_p deep;
  Cli.mkdir_p (Filename.concat base "a");
  Alcotest.(check bool) "still there" true (Sys.is_directory deep)

(* ------------------------------------------------------------------ *)
(* Json atomic file IO                                                 *)
(* ------------------------------------------------------------------ *)

let test_json_file_roundtrip () =
  let path = Filename.temp_file "commx-artifact" ".json" in
  let doc =
    Json.Obj
      [ ("schema_version", Json.Int 2); ("status", Json.String "ok");
        ("rows", Json.List [ Json.Obj [ ("n", Json.Int 5) ] ]) ]
  in
  Json.to_file ~path doc;
  Alcotest.(check bool) "roundtrip" true (Json.of_file path = doc);
  (* temp names are unique per writer, so scan for any sibling still
     carrying the artifact's prefix rather than probing one fixed name *)
  let leftover_temps () =
    Sys.readdir (Filename.dirname path)
    |> Array.to_list
    |> List.filter (String.starts_with ~prefix:(Filename.basename path ^ "."))
  in
  Alcotest.(check (list string)) "no temp file left" [] (leftover_temps ());
  (* overwriting an existing artifact is atomic too: the old content is
     fully replaced *)
  let doc2 = Json.Obj [ ("status", Json.String "failed") ] in
  Json.to_file ~path doc2;
  Alcotest.(check bool) "replaced" true (Json.of_file path = doc2);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Exact-CC engine under the pool: values AND stats jobs-invariant     *)
(* ------------------------------------------------------------------ *)

module Exact_cc = Commx_comm.Exact_cc

(* This 10x10 instance canonicalizes to 9x10 — 766 root moves, above
   the engine's parallel threshold — and its portfolio bound (4) stays
   below the trivial upper bound (5), so the tree is genuinely searched
   in parallel. *)
let pooled_board () =
  let g = Prng.create 105015 in
  Commx_util.Bitmat.init 10 10 (fun _ _ -> Prng.float g < 0.15)

let test_exact_cc_pool_jobs_invariant () =
  (* The pooled work-stealing driver promises a schedule-invariant
     VALUE — node counts depend on which worker executed which block —
     so at every job count it must return the sequential value, and it
     must really search to do so. *)
  let m = pooled_board () in
  let v_seq, s_seq = Exact_cc.search m in
  let run jobs = Pool.with_pool ~jobs (fun pool -> Exact_cc.search ~pool m) in
  let w1, t1 = run 1 in
  let w4, t4 = run 4 in
  Alcotest.(check bool) "sequential searched" true (s_seq.Exact_cc.nodes > 0);
  Alcotest.(check int) "stealing value at jobs 1 = sequential" v_seq w1;
  Alcotest.(check int) "stealing value at jobs 4 = sequential" v_seq w4;
  Alcotest.(check bool) "stealing searched at jobs 1" true
    (t1.Exact_cc.nodes > 0);
  Alcotest.(check bool) "stealing searched at jobs 4" true
    (t4.Exact_cc.nodes > 0);
  List.iter
    (fun (t : Exact_cc.stats) ->
      Alcotest.(check int) "canon rows" s_seq.canon_rows t.canon_rows;
      Alcotest.(check int) "canon cols" s_seq.canon_cols t.canon_cols;
      Alcotest.(check int) "root lower" s_seq.root_lower t.root_lower;
      Alcotest.(check int) "root upper" s_seq.root_upper t.root_upper)
    [ t1; t4 ]

let test_exact_cc_pool_counters () =
  (* Pooled node counts are schedule-dependent, so they must land in
     [exact_cc.steal_nodes] and leave the jobs-invariant
     [exact_cc.nodes] — the counter the perf gate compares — alone; a
     sequential search feeds [exact_cc.nodes] only. *)
  let m = pooled_board () in
  let delta f =
    let before = Telemetry.counters () in
    let _, st = f () in
    let d = Telemetry.diff_counters ~before (Telemetry.counters ()) in
    let get k = Option.value ~default:0 (List.assoc_opt k d) in
    (st.Exact_cc.nodes, get "exact_cc.nodes", get "exact_cc.steal_nodes")
  in
  let prev = Telemetry.level () in
  Fun.protect
    ~finally:(fun () -> Telemetry.set_level prev)
    (fun () ->
      Telemetry.set_level Telemetry.Metrics;
      let n, nodes, steal =
        Pool.with_pool ~jobs:2 (fun pool ->
            delta (fun () -> Exact_cc.search ~pool m))
      in
      Alcotest.(check bool) "pooled search expanded nodes" true (n > 0);
      Alcotest.(check int) "pooled: steal_nodes grows by its nodes" n steal;
      Alcotest.(check int) "pooled: nodes unchanged" 0 nodes;
      let n, nodes, steal = delta (fun () -> Exact_cc.search m) in
      Alcotest.(check int) "sequential: nodes grows by its nodes" n nodes;
      Alcotest.(check int) "sequential: steal_nodes unchanged" 0 steal)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "runtime"
    [ ( "pool-cancel",
        [ Alcotest.test_case "pre-cancelled token" `Quick
            test_pool_precancelled_token;
          Alcotest.test_case "deadline fires on slow body" `Quick
            test_pool_deadline_fires;
          Alcotest.test_case "failure stops remaining chunks" `Quick
            test_pool_failure_stops_remaining_chunks;
          Alcotest.test_case "failure carries backtrace" `Quick
            test_pool_failure_carries_backtrace;
          Alcotest.test_case "seeded invariant after cancelled sibling" `Quick
            test_pool_seeded_invariant_after_cancelled_sibling;
          Alcotest.test_case "check_cancel" `Quick test_pool_check_cancel ] );
      ( "faults",
        [ Alcotest.test_case "deterministic given a seed" `Quick
            test_faults_deterministic;
          Alcotest.test_case "rate envelope" `Quick test_faults_rates;
          Alcotest.test_case "entry points" `Quick test_faults_point;
          Alcotest.test_case "inject inside pool tasks" `Quick
            test_faults_in_pool_tasks ] );
      ( "supervisor",
        [ Alcotest.test_case "ok" `Quick test_supervisor_ok;
          Alcotest.test_case "failed, not retryable" `Quick
            test_supervisor_failed_not_retryable;
          Alcotest.test_case "retry then ok" `Quick test_supervisor_retry_then_ok;
          Alcotest.test_case "jitter deterministic" `Quick
            test_supervisor_jitter_deterministic;
          Alcotest.test_case "jittered backoff replayable" `Quick
            test_supervisor_jittered_backoff_is_replayable;
          Alcotest.test_case "retries exhausted" `Quick
            test_supervisor_retries_exhausted;
          Alcotest.test_case "timeout via pool batch" `Quick
            test_supervisor_timeout_pool_batch;
          Alcotest.test_case "timeout via sequential tick" `Quick
            test_supervisor_timeout_sequential_tick;
          Alcotest.test_case "config validation" `Quick
            test_supervisor_config_validation;
          Alcotest.test_case "retry log sink" `Quick
            test_supervisor_log_sink_captures_retries ] );
      ( "signals",
        [ Alcotest.test_case "sleepf survives EINTR" `Quick
            test_clock_sleepf_survives_signals;
          Alcotest.test_case "broken-pipe recognizer" `Quick
            test_sigguard_recognizes_broken_pipes;
          Alcotest.test_case "EPIPE instead of death" `Quick
            test_sigguard_write_to_closed_pipe_is_epipe ] );
      ( "cli",
        [ Alcotest.test_case "full parse" `Quick test_cli_parse_full;
          Alcotest.test_case "errors" `Quick test_cli_parse_errors;
          Alcotest.test_case "env fallback" `Quick test_cli_env_fallback;
          Alcotest.test_case "mkdir_p" `Quick test_cli_mkdir_p ] );
      ( "json-file",
        [ Alcotest.test_case "atomic write + roundtrip" `Quick
            test_json_file_roundtrip ] );
      ( "exact-cc-pool",
        [ Alcotest.test_case "pooled search jobs-invariant" `Quick
            test_exact_cc_pool_jobs_invariant;
          Alcotest.test_case "pooled nodes feed steal counter" `Quick
            test_exact_cc_pool_counters ] )
    ]
