(* One `ccmx serve` daemon per run: launch, readiness, /proc readings
   and a shutdown that always waits for the process to end. *)

module Clock = Commx_util.Clock
module Client = Commx_serve.Client

type t = {
  pid : int;
  socket : string;
  control : Client.t;  (* stats, dump_trace and shutdown; never load *)
  mutable exited : bool;
}

(* /proc files report a length of 0, so read them in chunks. *)
let read_proc path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* utime + stime of a process in clock ticks (USER_HZ, 100 on Linux). *)
let cpu_ticks pid =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  (* Field 2 (the command) may hold spaces; count from its closing
     parenthesis: state is field 3, utime 14, stime 15. *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  int_of_string f.(11) + int_of_string f.(12)

let ticks_per_s = 100.0

let alive t =
  (not t.exited)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> true
  | _ ->
      t.exited <- true;
      false

(* Launch the daemon the way an operator would: one worker domain
   beside the acceptor, default cache and tables, warn-level logs into
   [log]. *)
let start ~ccmx ~socket ~log =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close logfd)
      (fun () ->
        Unix.create_process ccmx
          [| ccmx; "serve"; "--socket"; socket; "--workers"; "1";
             "--log-level"; "warn" |]
          devnull devnull logfd)
  in
  let control =
    Client.create ~retries:0 ~request_timeout_s:30.0
      ~breaker_threshold:max_int ~socket_path:socket ()
  in
  let t = { pid; socket; control; exited = false } in
  let deadline = Clock.now_s () +. 30.0 in
  let rec wait () =
    if not (alive t) then failwith "ccmx serve exited during start-up";
    match Client.request control ~op:"ping" [] with
    | Ok _ -> ()
    | Error e ->
        if Clock.now_s () > deadline then
          failwith ("ccmx serve not ready: " ^ Client.error_to_string e);
        Clock.sleepf 0.002;
        wait ()
  in
  (try wait ()
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] pid);
     t.exited <- true;
     raise e);
  t

let control_request t op =
  match Client.request t.control ~op [] with
  | Ok reply -> reply
  | Error e -> failwith (op ^ ": " ^ Client.error_to_string e)

let stats t = control_request t "stats"
let dump_trace t = control_request t "dump_trace"

(* Ask for a graceful shutdown, and kill after 10 s; either way the
   process has been reaped when this returns. *)
let stop t =
  if not t.exited then begin
    ignore (Client.request t.control ~op:"shutdown" []);
    Client.close t.control;
    let deadline = Clock.now_s () +. 10.0 in
    while alive t && Clock.now_s () < deadline do
      Clock.sleepf 0.01
    done;
    if alive t then begin
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] t.pid);
      t.exited <- true
    end;
    try Unix.unlink t.socket with Unix.Unix_error _ -> ()
  end
