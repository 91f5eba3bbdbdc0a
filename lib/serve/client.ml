(* Resilient client for the ccmx serve daemon.

   One socket, one in-flight request at a time (a mutex serializes
   callers), line-in/line-out.  Failure handling mirrors the
   Supervisor conventions used across the harness:

   - transport failures (connect refused, EOF, malformed reply) close
     the socket and are retried with jittered exponential backoff —
     the jitter is the deterministic Supervisor.jitter stream, so a
     replay under a fixed seed backs off bit-identically;
   - client-side timeouts close the socket (a late reply would
     desynchronize the line protocol) and are NOT retried: a repeat
     attempt would deterministically blow the same budget;
   - server error replies prove the daemon is alive; only the
     transient codes (overloaded, worker_crashed) are retried.

   A half-open circuit breaker sits in front: enough consecutive
   unanswered requests open it, requests then fail fast without
   touching the socket until a cooldown elapses, and a single probe
   request decides between closing it and re-opening. *)

module Json = Commx_util.Json
module Clock = Commx_util.Clock
module Supervisor = Commx_util.Supervisor

type config = {
  socket_path : string;
  connect_timeout_s : float;
  request_timeout_s : float option;
  retries : int;
  backoff_s : float;
  jitter : float;
  jitter_seed : int;
  breaker_threshold : int;
  breaker_cooldown_s : float;
  log : string -> unit;
}

let config ~socket_path ?(connect_timeout_s = 5.0) ?request_timeout_s
    ?(retries = 2) ?(backoff_s = 0.05) ?(jitter = 0.5) ?(jitter_seed = 0)
    ?(breaker_threshold = 5) ?(breaker_cooldown_s = 1.0) ?(log = ignore) () =
  if connect_timeout_s <= 0.0 then
    invalid_arg "Client.config: connect_timeout_s must be > 0";
  (match request_timeout_s with
  | Some s when s <= 0.0 ->
      invalid_arg "Client.config: request_timeout_s must be > 0"
  | _ -> ());
  if retries < 0 then invalid_arg "Client.config: retries must be >= 0";
  if not (jitter >= 0.0 && jitter <= 1.0) then
    invalid_arg "Client.config: jitter must be in [0, 1]";
  if breaker_threshold < 1 then
    invalid_arg "Client.config: breaker_threshold must be >= 1";
  if breaker_cooldown_s <= 0.0 then
    invalid_arg "Client.config: breaker_cooldown_s must be > 0";
  { socket_path; connect_timeout_s; request_timeout_s; retries; backoff_s;
    jitter; jitter_seed; breaker_threshold; breaker_cooldown_s; log }

type error =
  | Server_error of { code : string option; message : string; reply : Json.t }
  | Transport of string
  | Timed_out of float
  | Breaker_open of float

let error_to_string = function
  | Server_error { code; message; _ } ->
      Printf.sprintf "server error%s: %s"
        (match code with Some c -> Printf.sprintf " [%s]" c | None -> "")
        message
  | Transport msg -> Printf.sprintf "transport failure: %s" msg
  | Timed_out s -> Printf.sprintf "request timed out (%.3fs budget)" s
  | Breaker_open s ->
      Printf.sprintf "circuit breaker open (%.3fs until next probe)" s

type breaker = Closed | Open of float  (* when it opened *) | Half_open

type t = {
  cfg : config;
  m : Mutex.t;
  rbuf : Buffer.t;  (* bytes read past the last reply line *)
  mutable fd : Unix.file_descr option;
  mutable next_id : int;
  mutable failures : int;  (* consecutive unanswered requests *)
  mutable state : breaker;
}

let create ?connect_timeout_s ?request_timeout_s ?retries ?backoff_s ?jitter
    ?jitter_seed ?breaker_threshold ?breaker_cooldown_s ?log ~socket_path ()
    =
  let cfg =
    config ~socket_path ?connect_timeout_s ?request_timeout_s ?retries
      ?backoff_s ?jitter ?jitter_seed ?breaker_threshold ?breaker_cooldown_s
      ?log ()
  in
  { cfg; m = Mutex.create (); rbuf = Buffer.create 256; fd = None;
    next_id = 0; failures = 0; state = Closed }

(* Raised inside one attempt; never escapes [request]. *)
exception Fail of string
exception Attempt_timeout

let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let disconnect t =
  (match t.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.fd <- None;
  Buffer.clear t.rbuf

let close t =
  Mutex.lock t.m;
  disconnect t;
  Mutex.unlock t.m

(* Nonblocking connect bounded by connect_timeout_s (and the attempt
   deadline if tighter).  On a Unix socket this usually completes or
   refuses immediately; the select path covers a daemon whose accept
   backlog is full. *)
let connect t ~deadline =
  let cfg = t.cfg in
  let budget = min cfg.connect_timeout_s (deadline -. Clock.now_s ()) in
  if budget <= 0.0 then raise Attempt_timeout;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let fail_with e =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    failf "connect to %s failed: %s" cfg.socket_path (Printexc.to_string e)
  in
  Unix.set_nonblock fd;
  (match Unix.connect fd (Unix.ADDR_UNIX cfg.socket_path) with
  | () -> ()
  | exception
      Unix.Unix_error
        ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
      match Unix.select [] [ fd ] [] budget with
      | _, [ _ ], _ -> (
          match Unix.getsockopt_error fd with
          | None -> ()
          | Some err -> fail_with (Unix.Unix_error (err, "connect", "")))
      | _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          failf "connect to %s timed out" cfg.socket_path)
  | exception e -> fail_with e);
  fd

let ensure_connected t ~deadline =
  match t.fd with
  | Some fd -> fd
  | None ->
      Buffer.clear t.rbuf;
      let fd = connect t ~deadline in
      t.fd <- Some fd;
      fd

let rec write_all fd b pos len ~deadline =
  if len > 0 then
    match Unix.write fd b pos len with
    | n -> write_all fd b (pos + n) (len - n) ~deadline
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        write_all fd b pos len ~deadline
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        let remain = deadline -. Clock.now_s () in
        if remain <= 0.0 then raise Attempt_timeout;
        (* No request timeout: block.  [Unix.select] rejects an infinite
           timeout with EINVAL. *)
        (match
           Unix.select [] [ fd ] [] (if deadline < infinity then remain else -1.0)
         with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | _ -> ());
        write_all fd b pos len ~deadline
    | exception Unix.Unix_error (e, _, _) ->
        failf "write failed: %s" (Unix.error_message e)

(* Bytes past a reply line stay in [rbuf] for the next call.  Each
   byte is searched for the newline once: a long reply arriving in many
   chunks costs linear, not quadratic, time. *)
let read_line t fd ~deadline =
  let chunk = Bytes.create 65536 in
  let rec newline_from i =
    if i >= Buffer.length t.rbuf then None
    else if Buffer.nth t.rbuf i = '\n' then Some i
    else newline_from (i + 1)
  in
  let rec go scanned =
    match newline_from scanned with
    | Some i ->
        let s = Buffer.contents t.rbuf in
        Buffer.clear t.rbuf;
        Buffer.add_substring t.rbuf s (i + 1) (String.length s - i - 1);
        String.sub s 0 i
    | None ->
        let scanned = Buffer.length t.rbuf in
        let remain = deadline -. Clock.now_s () in
        if deadline < infinity && remain <= 0.0 then raise Attempt_timeout;
        (match
           Unix.select [ fd ] [] [] (if deadline < infinity then remain else -1.0)
         with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | [], _, _ -> ()
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> failf "server closed the connection"
            | n -> Buffer.add_subbytes t.rbuf chunk 0 n
            | exception
                Unix.Unix_error
                  ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ()
            | exception Unix.Unix_error (e, _, _) ->
                failf "read failed: %s" (Unix.error_message e)));
        go scanned
  in
  go 0

(* Server errors worth another attempt: the daemon is alive but this
   particular try was unlucky (queue full, worker crashed under it).
   Deadline expiry (timed_out) is deterministic and never retried. *)
let retryable_code = function
  | Some ("overloaded" | "worker_crashed") -> true
  | _ -> false

type attempt_outcome =
  | A_ok of Json.t
  | A_server of { code : string option; message : string; reply : Json.t }

let attempt t ~op ~fields ~deadline =
  let fd = ensure_connected t ~deadline in
  let id = t.next_id in
  t.next_id <- id + 1;
  let line =
    Wire.to_line
      (Json.Obj (("op", Json.String op) :: ("id", Json.Int id) :: fields))
  in
  let b = Bytes.of_string line in
  write_all fd b 0 (Bytes.length b) ~deadline;
  let reply =
    match Json.of_string (read_line t fd ~deadline) with
    | r -> r
    | exception Failure msg -> failf "malformed reply: %s" msg
  in
  (match Json.member "id" reply with
  | Some (Json.Int i) when i = id -> ()
  | _ -> failf "reply id mismatch (expected %d)" id);
  match Json.member "ok" reply with
  | Some (Json.Bool true) -> A_ok reply
  | Some (Json.Bool false) ->
      let message =
        match Json.member "error" reply with
        | Some (Json.String m) -> m
        | _ -> "unspecified server error"
      in
      A_server { code = Wire.error_code reply; message; reply }
  | _ -> failf "reply carries no \"ok\" field"

let backoff_pause cfg ~op ~attempt =
  let base = cfg.backoff_s *. (2.0 ** float_of_int (attempt - 1)) in
  if cfg.jitter = 0.0 then base
  else
    base
    *. (1.0
       +. cfg.jitter
          *. Supervisor.jitter ~seed:cfg.jitter_seed ~name:("client:" ^ op)
               ~attempt)

let request t ?deadline_ms ~op fields =
  let cfg = t.cfg in
  let fields =
    match deadline_ms with
    | Some ms -> ("deadline_ms", Json.Int ms) :: fields
    | None -> fields
  in
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      let gate =
        match t.state with
        | Closed | Half_open -> `Proceed
        | Open since ->
            let elapsed = Clock.now_s () -. since in
            if elapsed >= cfg.breaker_cooldown_s then begin
              t.state <- Half_open;
              cfg.log (Printf.sprintf "breaker half-open: probing with %s" op);
              `Proceed
            end
            else `Refuse (cfg.breaker_cooldown_s -. elapsed)
      in
      match gate with
      | `Refuse remaining -> Error (Breaker_open remaining)
      | `Proceed ->
          let budget =
            Option.value cfg.request_timeout_s ~default:infinity
          in
          let rec go n =
            let deadline =
              if budget < infinity then Clock.now_s () +. budget else infinity
            in
            let retry_after reason =
              let pause = backoff_pause cfg ~op ~attempt:n in
              cfg.log
                (Printf.sprintf
                   "attempt %d of %s failed (%s), retrying in %.3fs" n op
                   reason pause);
              if pause > 0.0 then Clock.sleepf pause;
              go (n + 1)
            in
            match attempt t ~op ~fields ~deadline with
            | A_ok reply -> Ok reply
            | A_server s when retryable_code s.code && n <= cfg.retries ->
                retry_after (Option.value s.code ~default:"server error")
            | A_server { code; message; reply } ->
                Error (Server_error { code; message; reply })
            | exception Attempt_timeout ->
                (* A late reply on this socket would answer the NEXT
                   request; reconnecting is the only safe state. *)
                disconnect t;
                Error (Timed_out budget)
            | exception Fail msg ->
                disconnect t;
                if n <= cfg.retries then retry_after msg
                else Error (Transport msg)
          in
          let outcome = go 1 in
          (match outcome with
          | Ok _ | Error (Server_error _) ->
              (* An answer — any answer — proves the daemon is up. *)
              if t.state <> Closed then cfg.log "breaker closed";
              t.failures <- 0;
              t.state <- Closed
          | Error (Transport _ | Timed_out _) ->
              t.failures <- t.failures + 1;
              if t.state = Half_open then begin
                t.state <- Open (Clock.now_s ());
                cfg.log "breaker re-opened: probe failed"
              end
              else if
                t.state = Closed && t.failures >= cfg.breaker_threshold
              then begin
                t.state <- Open (Clock.now_s ());
                cfg.log
                  (Printf.sprintf "breaker opened after %d failures"
                     t.failures)
              end
          | Error (Breaker_open _) -> ());
          outcome)

let breaker_state t =
  Mutex.lock t.m;
  let s =
    match t.state with
    | Closed -> "closed"
    | Open _ -> "open"
    | Half_open -> "half_open"
  in
  Mutex.unlock t.m;
  s

(* The two polling ops observability consumers issue constantly, as
   one-liners so `ccmx top` and scripts don't re-spell the op names. *)
let stats ?deadline_ms t = request t ?deadline_ms ~op:"stats" []
let dump_trace ?deadline_ms t = request t ?deadline_ms ~op:"dump_trace" []
