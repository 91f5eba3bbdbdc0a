(* Arithmetic the benchmark reports with: percentiles and the rule for
   which tail percentile a sample supports, failure shares, the wire
   residual and the answers digest.  Pure, and checked by
   perfbench/test. *)

let percentile xs p =
  if Array.length xs = 0 then 0.0 else Commx_util.Stats.percentile xs p

(* Samples strictly above the interpolated [p]-th percentile of [n]
   samples: the percentile sits at sorted position (n-1)p/100, so
   every index past its floor lies beyond it. *)
let samples_beyond ~n ~p =
  if n = 0 then 0
  else
    let h = float_of_int (n - 1) *. p /. 100.0 in
    n - 1 - int_of_float (Float.floor h)

(* A tail percentile is reported as measured only when at least ten
   samples lie beyond it; below that it is one or two outliers. *)
let tail_supported ~n ~p = samples_beyond ~n ~p >= 10

(* The percentile at the eleventh-largest of [n] samples (sorted
   position n-11): the highest sample with ten beyond it.  [None] below
   11 samples. *)
let highest_supported ~n =
  if n < 11 then None
  else Some (100.0 *. float_of_int (n - 11) /. float_of_int (n - 1))

(* Windowed statistics.  The timed phase [t0, t1) is cut into [k]
   equal windows and each sample goes to the window its request ended
   in.  A short stall of the host then moves one or two windows, not the
   median over windows. *)
let window ~t0 ~t1 ~k t =
  max 0 (min (k - 1) (int_of_float (float_of_int k *. (t -. t0) /. (t1 -. t0))))

let median xs = percentile xs 50.0

(* Median over windows of completions per second; [ends] are the end
   times of the requests that count. *)
let windowed_rate ~t0 ~t1 ~k ends =
  let counts = Array.make k 0 in
  Array.iter (fun t -> let w = window ~t0 ~t1 ~k t in counts.(w) <- counts.(w) + 1) ends;
  let len = (t1 -. t0) /. float_of_int k in
  median (Array.map (fun c -> float_of_int c /. len) counts)

(* The median over windows of each window's [p]-th percentile when every
   window alone supports that percentile; otherwise the percentile of
   the whole phase.  [samples] are (end time, value). *)
let windowed_percentile ~t0 ~t1 ~k samples p =
  let per = Array.make k [] in
  Array.iter (fun (t, v) -> let w = window ~t0 ~t1 ~k t in per.(w) <- v :: per.(w)) samples;
  let per = Array.map Array.of_list per in
  if Array.for_all (fun xs -> tail_supported ~n:(Array.length xs) ~p) per then
    median (Array.map (fun xs -> percentile xs p) per)
  else percentile (Array.map snd samples) p

let failure_share ~attempted ~failed =
  if attempted <= 0 then 0.0 else float_of_int failed /. float_of_int attempted

(* What a round trip costs beyond the in-process stages: socket
   read/write, the acceptor's select loop and the queue handoff. *)
let residual ~total ~stages = List.fold_left ( -. ) total stages

(* FNV-1a over the answers in request order, folded into OCaml's 63-bit
   ints: a digest of what was answered, never of how fast. *)
let digest answers =
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

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
