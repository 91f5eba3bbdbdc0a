(* JSON-lines request/response codec for ccmx serve.

   Parsing is strict: unknown ops, missing fields, ragged matrices and
   oversized inputs are rejected with a message the daemon sends back
   verbatim, never an exception across the module boundary.  The codec
   deliberately knows nothing about sockets or caches — it maps lines
   to typed requests and replies to lines, and the same functions serve
   the daemon, the tests and the example client. *)

module Json = Commx_util.Json
module Bm = Commx_util.Bitmat
module Bitvec = Commx_util.Bitvec
module Zm = Commx_linalg.Zmatrix
module B = Commx_bigint.Bigint

type request =
  | Ping
  | Stats
  | Shutdown
  | Dump_trace
  | Exact_cc of { matrix : Bm.t; use_cache : bool }
  | Singular of { matrix : Zm.t }
  | Lemma32 of { n : int; k : int; seed : int }
  | Lower_bounds of { matrix : Bm.t }
  | Protocol_run of { proto : string; n : int; k : int; seed : int; epsilon : float }
  | Rank_batch of { matrices : Bm.t array }

type envelope = {
  id : Json.t;
  op : string;
  deadline_ms : int option;
  req : request;
}

let max_matrix_side = 64
let max_batch_size = 1024

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

module C = Json.Cursor

(* ------------------------------------------------------------------ *)
(* Bit matrices, decoded straight from the row strings                 *)
(* ------------------------------------------------------------------ *)

(* Pack one row's ['0']/['1'] bytes [s.[off .. off+len-1]] into
   [words] from [base], in Bitvec layout; [false] on any other byte.
   Branch-free per byte: a digit [d] sets bit [d], and any [d] outside
   {0, 1} leaves a mark in [stray]. *)
let pack_row s off len words base =
  let stray = ref 0 in
  for k = 0 to Bitvec.words_for len - 1 do
    let lo = k * Bitvec.bits_per_word in
    let w = ref 0 in
    for j = lo to min len (lo + Bitvec.bits_per_word) - 1 do
      let d = Char.code (String.unsafe_get s (off + j)) - Char.code '0' in
      w := !w lor (d lsl (j - lo));
      stray := !stray lor (d land lnot 1)
    done;
    words.(base + k) <- !w
  done;
  !stray = 0

(* Room for the row words of the largest board the wire admits. *)
let row_words () =
  Array.make (max_matrix_side * Bitvec.words_for max_matrix_side) 0

(* One board, the cursor before its ['['], decoded straight from the
   row strings into row words in one pass.  The whole value is always
   consumed, so a batch can go on past a bad board.  A malformed
   board's verdict is, in this order: a non-string row, no rows, an
   empty first row, more than 64 rows or columns, unequal lengths, a
   byte other than ['0']/['1']. *)
let board c words =
  let rows = ref 0 and cols = ref 0 in
  let non_string = ref false and ragged = ref false and stray = ref false in
  C.list c (fun c ->
      let i = !rows in
      incr rows;
      if not (C.next_is c '"') then begin
        non_string := true;
        C.skip c
      end
      else if i >= max_matrix_side then C.skip c
      else begin
        let s, off, len = C.slice c in
        if i = 0 then cols := len;
        if len <> !cols then ragged := true
        else if
          len <= max_matrix_side
          && not (pack_row s off len words (i * Bitvec.words_for len))
        then stray := true
      end);
  if !non_string then Error "matrix rows must be strings"
  else if !rows = 0 then Error "matrix has no rows"
  else if !cols = 0 then Error "matrix has empty rows"
  else if !rows > max_matrix_side || !cols > max_matrix_side then
    Error
      (Printf.sprintf "matrix exceeds %dx%d wire limit" max_matrix_side
         max_matrix_side)
  else if !ragged then Error "matrix rows have unequal lengths"
  else if !stray then Error "matrix rows must contain only '0' and '1'"
  else Ok (Bm.of_packed_rows !rows !cols words)

(* A [matrix] value: one board of row strings. *)
let decode_matrix c =
  if C.next_is c '[' then board c (row_words ())
  else begin
    C.skip c;
    Error "field \"matrix\" must be a list of row strings"
  end

(* A [matrices] value: every board is validated by the single-matrix
   rules, and the batch count itself is capped so one line cannot queue
   unbounded work.  An over-long batch is rejected as such whatever its
   boards hold; otherwise the first bad board's verdict stands. *)
let decode_matrices c =
  if not (C.next_is c '[') then begin
    C.skip c;
    Error "field \"matrices\" must be a list of matrices"
  end
  else begin
    let words = row_words () in
    let boards = ref [] and count = ref 0 and first_error = ref None in
    C.list c (fun c ->
        incr count;
        if Option.is_some !first_error || !count > max_batch_size then C.skip c
        else if not (C.next_is c '[') then begin
          first_error := Some "each matrix must be a list of row strings";
          C.skip c
        end
        else
          match board c words with
          | Ok m -> boards := m :: !boards
          | Error msg -> first_error := Some msg);
    if !count > max_batch_size then
      Error (Printf.sprintf "batch exceeds %d-matrix wire limit" max_batch_size)
    else
      match !first_error with
      | Some msg -> Error msg
      | None -> Ok (Array.of_list (List.rev !boards))
  end

(* ------------------------------------------------------------------ *)
(* One walk over the request object                                    *)
(* ------------------------------------------------------------------ *)

(* How the walk left a member's value.  Bit matrices are decoded in the
   walk itself; every other value is parsed into a tree. *)
type value =
  | Tree of Json.t
  | Board of (Bm.t, string) result  (* a [matrix] of row strings *)
  | Batch of (Bm.t array, string) result  (* [matrices] *)

(* Each top-level key with the offset of its value and what the walk made
   of it, in document order.  Lookups take the first binding, as
   [Json.member] does; a later duplicate is decoded but never read. *)
type members = { line : string; values : (string * (int * value)) list }

(* Does the text at [pos] open a list whose first element is a string?
   Then a [matrix] is decoded as a bit matrix in the walk; otherwise
   (an integer matrix) it is parsed into a tree.  Either way the value
   stays readable the other way from its offset. *)
let string_rows_at line pos =
  let n = String.length line in
  let rec ws i =
    if i < n && match line.[i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    then ws (i + 1)
    else i
  in
  let i = ws pos in
  i < n && line.[i] = '[' && let j = ws (i + 1) in j < n && line.[j] = '"'

(* Walk the whole line once, validating it as JSON: bit matrices go
   straight into row words and every other member into a tree.  A
   malformed line fails here, wherever the fault, before any member's
   verdict is read.  [None]: valid JSON, but not an object. *)
let members line =
  let c = C.create line in
  if C.next_is c '{' then begin
    let values = ref [] in
    C.obj c (fun c key ->
        let pos = C.pos c in
        let v =
          match key with
          | "matrices" -> Batch (decode_matrices c)
          | "matrix" when string_rows_at line pos -> Board (decode_matrix c)
          | _ -> Tree (C.value c)
        in
        values := (key, (pos, v)) :: !values);
    C.finish c;
    Some { line; values = List.rev !values }
  end
  else begin
    C.skip c;
    C.finish c;
    None
  end

let lookup obj key = List.assoc_opt key obj.values
let at obj pos = C.create ~pos obj.line

(* A member's value as a tree; one the walk decoded is parsed again from
   its text (it was validated, so this cannot fail). *)
let field obj key =
  match lookup obj key with
  | None -> None
  | Some (_, Tree v) -> Some v
  | Some (pos, (Board _ | Batch _)) -> Some (C.value (at obj pos))

let int_field ?default obj key =
  match (field obj key, default) with
  | Some (Json.Int v), _ -> v
  | None, Some d -> d
  | None, None -> bad "missing integer field %S" key
  | Some _, _ -> bad "field %S must be an integer" key

let float_field ?default obj key =
  match (field obj key, default) with
  | Some (Json.Float v), _ -> v
  | Some (Json.Int v), _ -> float_of_int v
  | None, Some d -> d
  | None, None -> bad "missing number field %S" key
  | Some _, _ -> bad "field %S must be a number" key

let bool_field ~default obj key =
  match field obj key with
  | Some (Json.Bool v) -> v
  | None -> default
  | Some _ -> bad "field %S must be a boolean" key

let string_field ?default obj key =
  match (field obj key, default) with
  | Some (Json.String s), _ -> s
  | None, Some d -> d
  | None, None -> bad "missing string field %S" key
  | Some _, _ -> bad "field %S must be a string" key

let verdict = function Ok v -> v | Error msg -> raise (Bad msg)

(* ["0110", "1001", ...] -> Bitmat, strictly rectangular, 0/1 only. *)
let bit_matrix obj =
  match lookup obj "matrix" with
  | None -> bad "missing field \"matrix\""
  | Some (_, Board r) -> verdict r
  | Some (pos, (Tree _ | Batch _)) -> verdict (decode_matrix (at obj pos))

(* [["01","10"], ...] -> Bitmat array. *)
let bit_matrices obj =
  match lookup obj "matrices" with
  | None -> bad "missing field \"matrices\""
  | Some (_, Batch r) -> verdict r
  | Some (pos, (Tree _ | Board _)) -> verdict (decode_matrices (at obj pos))

(* [[1, 2], ["-3", 4], ...] -> Zmatrix; entries are ints or decimal
   strings (bigints larger than a native int must come as strings). *)
let int_matrix obj =
  let entry = function
    | Json.Int v -> B.of_int v
    | Json.String s -> (
        try B.of_string s
        with _ -> bad "matrix entry %S is not a decimal integer" s)
    | _ -> bad "matrix entries must be integers or decimal strings"
  in
  let rows =
    match field obj "matrix" with
    | Some (Json.List l) -> l
    | Some _ -> bad "field \"matrix\" must be a list of rows"
    | None -> bad "missing field \"matrix\""
  in
  let rows =
    List.map
      (function
        | Json.List r -> Array.of_list (List.map entry r)
        | _ -> bad "matrix rows must be lists")
      rows
  in
  match rows with
  | [] -> bad "matrix has no rows"
  | first :: _ ->
      let nr = List.length rows and nc = Array.length first in
      if nc = 0 then bad "matrix has empty rows";
      if nr > max_matrix_side || nc > max_matrix_side then
        bad "matrix exceeds %dx%d wire limit" max_matrix_side max_matrix_side;
      if List.exists (fun r -> Array.length r <> nc) rows then
        bad "matrix rows have unequal lengths";
      let a = Array.of_list rows in
      Zm.init nr nc (fun i j -> a.(i).(j))

let request_of obj op =
  match op with
  | "ping" -> Ping
  | "stats" -> Stats
  | "shutdown" -> Shutdown
  | "dump_trace" -> Dump_trace
  | "exact_cc" ->
      Exact_cc
        { matrix = bit_matrix obj;
          use_cache = bool_field ~default:true obj "use_cache" }
  | "singular" -> Singular { matrix = int_matrix obj }
  | "lemma32" ->
      Lemma32
        { n = int_field ~default:7 obj "n";
          k = int_field ~default:2 obj "k";
          seed = int_field ~default:0 obj "seed" }
  | "lower_bounds" -> Lower_bounds { matrix = bit_matrix obj }
  | "protocol" ->
      Protocol_run
        { proto = string_field ~default:"trivial" obj "protocol";
          n = int_field ~default:7 obj "n";
          k = int_field ~default:2 obj "k";
          seed = int_field ~default:0 obj "seed";
          epsilon = float_field ~default:0.01 obj "epsilon" }
  | "rank_batch" -> Rank_batch { matrices = bit_matrices obj }
  | other -> bad "unknown op %S" other

(* Optional per-request deadline, in milliseconds of wall budget from
   the moment the daemon parses the request.  0 or negative is a
   client bug worth rejecting loudly rather than an instant timeout. *)
let deadline_of obj =
  match field obj "deadline_ms" with
  | None -> None
  | Some (Json.Int v) ->
      if v <= 0 then bad "field \"deadline_ms\" must be > 0" else Some v
  | Some _ -> bad "field \"deadline_ms\" must be an integer"

let parse line =
  match members line with
  | exception Failure msg -> Error (Json.Null, "malformed JSON: " ^ msg)
  | None -> Error (Json.Null, "request must be a JSON object")
  | Some obj -> (
      let id = Option.value (field obj "id") ~default:Json.Null in
      match field obj "op" with
      | Some (Json.String op) -> (
          try Ok { id; op; deadline_ms = deadline_of obj; req = request_of obj op }
          with Bad msg -> Error (id, msg))
      | Some _ -> Error (id, "field \"op\" must be a string")
      | None -> Error (id, "missing field \"op\""))

let ok ~id ~op fields =
  Json.Obj
    (("id", id) :: ("op", Json.String op) :: ("ok", Json.Bool true) :: fields)

let error ?code ?(fields = []) ~id msg =
  let tail =
    match code with
    | None -> fields
    | Some c -> ("code", Json.String c) :: fields
  in
  Json.Obj
    (("id", id) :: ("ok", Json.Bool false) :: ("error", Json.String msg)
    :: tail)

let error_code reply =
  match reply with
  | Json.Obj _ -> (
      match (Json.member "ok" reply, Json.member "code" reply) with
      | Some (Json.Bool false), Some (Json.String c) -> Some c
      | _ -> None)
  | _ -> None

let to_line doc = Json.to_string doc ^ "\n"
