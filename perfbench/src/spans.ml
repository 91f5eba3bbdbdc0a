(* In-memory span recorder for the traced runs.  Spans are recorded
   around calls into the program's public functions from the benchmark's
   own code; every span of one request carries that request's id, and a
   stage span's parent is the request's root span.  Nothing is written
   until the run ends. *)

module Json = Commx_util.Json
module Clock = Commx_util.Clock

type span = {
  id : int;
  req : int;
  name : string;
  parent : int;  (* 0 for a root span *)
  start_ns : int;
  dur_ns : int;
}

type t = { mutable rev : span list; mutable next : int }

let create () = { rev = []; next = 1 }

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

(* Record a span under an id taken from [fresh_id] earlier: a root span
   is closed after its children, which already point at it. *)
let push t ~id ~req ~parent ~name ~start_ns ~dur_ns =
  t.rev <- { id; req; name; parent; start_ns; dur_ns } :: t.rev

let add t ~req ~parent ~name ~start_ns ~dur_ns =
  let id = fresh_id t in
  push t ~id ~req ~parent ~name ~start_ns ~dur_ns;
  id

(* Time [f ()] as a child span of [parent]. *)
let time t ~req ~parent name f =
  let t0 = Clock.now_ns () in
  let r = f () in
  ignore (add t ~req ~parent ~name ~start_ns:t0 ~dur_ns:(Clock.now_ns () - t0));
  r

let spans t = List.rev t.rev

(* A span's self time: its duration minus what its direct children
   cover.  Children of one parent run one after another, never
   overlapping, so their durations add. *)
let self_ns spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (s.dur_ns + Option.value (Hashtbl.find_opt covered s.parent) ~default:0))
    spans;
  List.map
    (fun s ->
      (s, max 0 (s.dur_ns - Option.value (Hashtbl.find_opt covered s.id) ~default:0)))
    spans

(* Self time in ns of the spans called [name], per request id: a
   request with several such spans gets their sum. *)
let self_ns_by_req spans name =
  let per_req = Hashtbl.create 1024 in
  List.iter
    (fun (s, self) ->
      if s.name = name then
        Hashtbl.replace per_req s.req
          (self + Option.value (Hashtbl.find_opt per_req s.req) ~default:0))
    (self_ns spans);
  per_req

let to_chrome spans =
  Json.Obj
    [ ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [ ("name", Json.String s.name); ("ph", Json.String "X");
                   ("ts", Json.Float (Clock.ns_to_us s.start_ns));
                   ("dur", Json.Float (Clock.ns_to_us s.dur_ns));
                   ("pid", Json.Int 1); ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [ ("req", Json.Int s.req); ("span", Json.Int s.id);
                         ("parent", Json.Int s.parent) ] ) ])
             spans) ) ]
