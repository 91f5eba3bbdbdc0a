(* SplitMix64.  State advances by the golden-ratio Weyl constant; output
   is the mixed state.  See Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014. *)

(* The 64-bit state lives in 8 raw bytes, read and written with
   [get/set_int64_le].  A [mutable int64] field would box a fresh int64
   on every draw; through the bytes, the state and the mixing stay
   unboxed, so [int], [bool] and [shuffle] allocate nothing, and
   [float] and [bits64] only box their result. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 s;
  g

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

(* One counter bump per raw 64-bit draw, added once per call.  Streams
   are pre-split per item before any parallelism
   (Pool.parallel_map_seeded), so the total draw count is a function of
   the workload alone — jobs-invariant. *)
let draws_counter = Telemetry.counter "prng.draws"

(* The next raw output, uncounted: callers account for their draws. *)
let[@inline] next g =
  let s = Int64.add (Bytes.get_int64_le g 0) golden_gamma in
  Bytes.set_int64_le g 0 s;
  mix64 s

(* Non-negative 62-bit value: avoids OCaml int overflow on 64-bit
   platforms where native ints carry 63 bits. *)
let[@inline] next62 g = Int64.to_int (Int64.shift_right_logical (next g) 2)

let bits64 g =
  Telemetry.incr draws_counter;
  next g

let split g = of_state (mix64 (bits64 g))

let bool g =
  Telemetry.incr draws_counter;
  Int64.compare (next g) 0L < 0

(* Rejection sampling for exact uniformity: values at or above [limit]
   would favour the low residues. *)
let max62 = (1 lsl 62) - 1

let[@inline] limit_below bound = max62 - (max62 mod bound)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let limit = limit_below bound in
  let v = ref (next62 g) and draws = ref 1 in
  while !v >= limit do
    v := next62 g;
    incr draws
  done;
  Telemetry.add draws_counter !draws;
  !v mod bound

let int_incl g lo hi =
  if lo > hi then invalid_arg "Prng.int_incl: lo > hi";
  lo + int g (hi - lo + 1)

let float g =
  Telemetry.incr draws_counter;
  let v = Int64.to_int (Int64.shift_right_logical (next g) 11) in
  float_of_int v *. 0x1p-53

(* Fisher–Yates with [int]'s rejection rule inlined, so the whole pass
   costs one counter bump. *)
let shuffle g a =
  let draws = ref 0 in
  for i = Array.length a - 1 downto 1 do
    let limit = limit_below (i + 1) in
    let v = ref (next62 g) in
    incr draws;
    while !v >= limit do
      v := next62 g;
      incr draws
    done;
    let j = !v mod (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  if !draws > 0 then Telemetry.add draws_counter !draws

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))

let sample_without_replacement g m n =
  if m < 0 || m > n then invalid_arg "Prng.sample_without_replacement";
  (* Partial Fisher-Yates over an index table. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to m - 1 do
    let j = int_incl g i (n - 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 m
