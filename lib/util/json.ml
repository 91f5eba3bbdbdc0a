type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emitter                                                             *)
(* ------------------------------------------------------------------ *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Escape-free strings, the common case, are copied in one blit. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
  Buffer.add_char buf '"'

(* Shortest decimal that round-trips; falls back to 17 significant
   digits, which is always exact for a double. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Non-finite floats have no strict-JSON literal; emitting [null] (as
   this module once did) silently turned [Float nan] into [Null] on the
   way back in.  We use the de-facto extension literals (Python's
   [json], JavaScript's [JSON.parse] with reviver, etc.): [NaN],
   [Infinity], [-Infinity] — and the parser below accepts them, so
   every [Float] round-trips. *)
let add_number buf f =
  if Float.is_nan f then Buffer.add_string buf "NaN"
  else if f = Float.infinity then Buffer.add_string buf "Infinity"
  else if f = Float.neg_infinity then Buffer.add_string buf "-Infinity"
  else Buffer.add_string buf (float_repr f)

let rec emit ~indent ~level buf v =
  let pad n = if indent then Buffer.add_string buf (String.make (2 * n) ' ') in
  let sep_open c = Buffer.add_char buf c; if indent then Buffer.add_char buf '\n' in
  let sep_close c =
    if indent then begin Buffer.add_char buf '\n'; pad level end;
    Buffer.add_char buf c
  in
  let comma () =
    Buffer.add_char buf ',';
    if indent then Buffer.add_char buf '\n'
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_number buf f
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      sep_open '[';
      List.iteri
        (fun i item ->
          if i > 0 then comma ();
          pad (level + 1);
          emit ~indent ~level:(level + 1) buf item)
        items;
      sep_close ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      sep_open '{';
      List.iteri
        (fun i (key, value) ->
          if i > 0 then comma ();
          pad (level + 1);
          escape_string buf key;
          Buffer.add_string buf (if indent then ": " else ":");
          emit ~indent ~level:(level + 1) buf value)
        fields;
      sep_close '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit ~indent:false ~level:0 buf v;
  Buffer.contents buf

let to_string_pretty v =
  let buf = Buffer.create 256 in
  emit ~indent:true ~level:0 buf v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

(* One recursive-descent parser over a mutable cursor.  [of_string]
   drives it to build the whole tree; a caller that needs only part of
   a document (the serve daemon's request decoder) drives the same
   cursor and skips the rest, so both see one grammar and one set of
   error messages. *)
module Cursor = struct
  type json = t
  type t = { src : string; mutable pos : int }

  let create ?(pos = 0) src = { src; pos }
  let pos cur = cur.pos

  let fail cur msg =
    failwith (Printf.sprintf "Json.of_string: %s at offset %d" msg cur.pos)

  let at_end cur = cur.pos >= String.length cur.src

  (* The byte under the cursor, ['\000'] at the end of input: code that
     must tell a literal NUL from the end tests [at_end] first.  A
     [char option] here would allocate on every byte. *)
  let peek cur =
    if cur.pos < String.length cur.src then String.unsafe_get cur.src cur.pos
    else '\000'

  let advance cur = cur.pos <- cur.pos + 1

  let skip_ws cur =
    while match peek cur with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
      advance cur
    done

  let next_is cur c =
    skip_ws cur;
    (not (at_end cur)) && peek cur = c

  let expect cur c =
    if peek cur = c then advance cur
    else fail cur (Printf.sprintf "expected %C" c)

  let literal cur word value =
    let n = String.length word in
    let rec matches i =
      i = n
      || (String.unsafe_get cur.src (cur.pos + i) = word.[i] && matches (i + 1))
    in
    if cur.pos + n <= String.length cur.src && matches 0 then begin
      cur.pos <- cur.pos + n;
      value
    end
    else fail cur (Printf.sprintf "expected %s" word)

  (* Encode a Unicode code point as UTF-8. *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end

  let hex4 cur =
    let v = ref 0 in
    for _ = 1 to 4 do
      (match peek cur with
      | '0' .. '9' as c -> v := (!v * 16) + Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> v := (!v * 16) + Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> v := (!v * 16) + Char.code c - Char.code 'A' + 10
      | _ -> fail cur "expected hex digit");
      advance cur
    done;
    !v

  (* Past the opening quote, scan to the first quote or backslash.  An
     escape-free literal leaves the cursor past its closing quote and
     gives [true]; otherwise the cursor is just past the first
     backslash. *)
  let plain cur =
    expect cur '"';
    let src = cur.src in
    let n = String.length src in
    let i = ref cur.pos in
    while
      !i < n && match String.unsafe_get src !i with '"' | '\\' -> false | _ -> true
    do
      incr i
    done;
    cur.pos <- !i;
    if !i >= n then fail cur "unterminated string";
    advance cur;
    src.[!i] = '"'

  (* Decode the rest of a literal into [buf], the cursor just past a
     backslash. *)
  let rec escaped cur buf =
    let add c =
      Buffer.add_char buf c;
      advance cur
    in
    (match peek cur with
    | ('"' | '\\' | '/') as c -> add c
    | 'n' -> add '\n'
    | 'r' -> add '\r'
    | 't' -> add '\t'
    | 'b' -> add '\b'
    | 'f' -> add '\012'
    | 'u' ->
        advance cur;
        let cp = hex4 cur in
        (* Surrogate pair *)
        if cp >= 0xD800 && cp <= 0xDBFF then begin
          expect cur '\\';
          expect cur 'u';
          let lo = hex4 cur in
          if lo < 0xDC00 || lo > 0xDFFF then fail cur "invalid low surrogate";
          add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
        end
        else add_utf8 buf cp
    | _ -> fail cur "invalid escape");
    let rec chars () =
      if at_end cur then fail cur "unterminated string";
      match peek cur with
      | '"' -> advance cur
      | '\\' ->
          advance cur;
          escaped cur buf
      | c ->
          Buffer.add_char buf c;
          advance cur;
          chars ()
    in
    chars ()

  let slice cur =
    skip_ws cur;
    let start = cur.pos + 1 in
    if plain cur then (cur.src, start, cur.pos - 1 - start)
    else begin
      let buf = Buffer.create (cur.pos - start + 16) in
      Buffer.add_substring buf cur.src start (cur.pos - 1 - start);
      escaped cur buf;
      let s = Buffer.contents buf in
      (s, 0, String.length s)
    end

  let string cur =
    let s, off, len = slice cur in
    if s == cur.src then String.sub s off len else s

  let number cur =
    let start = cur.pos in
    let is_float = ref false in
    while
      match peek cur with
      | '0' .. '9' | '-' | '+' -> true
      | '.' | 'e' | 'E' ->
          is_float := true;
          true
      | _ -> false
    do
      advance cur
    done;
    let s = String.sub cur.src start (cur.pos - start) in
    if !is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail cur "malformed number"
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
          (* Integer literal out of native range: keep it as a float. *)
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> fail cur "malformed number")

  let rec value cur : json =
    skip_ws cur;
    if at_end cur then fail cur "unexpected end of input";
    match peek cur with
    | 'n' -> literal cur "null" Null
    | 't' -> literal cur "true" (Bool true)
    | 'f' -> literal cur "false" (Bool false)
    | 'N' -> literal cur "NaN" (Float Float.nan)
    | 'I' -> literal cur "Infinity" (Float Float.infinity)
    | '-'
      when cur.pos + 1 < String.length cur.src && cur.src.[cur.pos + 1] = 'I' ->
        advance cur;
        literal cur "Infinity" (Float Float.neg_infinity)
    | '"' -> String (string cur)
    | '[' ->
        let items = ref [] in
        list cur (fun cur -> items := value cur :: !items);
        List (List.rev !items)
    | '{' ->
        let fields = ref [] in
        obj cur (fun cur key -> fields := (key, value cur) :: !fields);
        Obj (List.rev !fields)
    | '-' | '0' .. '9' -> number cur
    | c -> fail cur (Printf.sprintf "unexpected character %C" c)

  and list cur item =
    skip_ws cur;
    expect cur '[';
    skip_ws cur;
    if peek cur = ']' then advance cur
    else
      let rec loop () =
        item cur;
        skip_ws cur;
        match peek cur with
        | ',' ->
            advance cur;
            loop ()
        | ']' -> advance cur
        | _ -> fail cur "expected ',' or ']'"
      in
      loop ()

  and obj cur member =
    skip_ws cur;
    expect cur '{';
    skip_ws cur;
    if peek cur = '}' then advance cur
    else
      let rec loop () =
        skip_ws cur;
        let key = string cur in
        skip_ws cur;
        expect cur ':';
        member cur key;
        skip_ws cur;
        match peek cur with
        | ',' ->
            advance cur;
            loop ()
        | '}' -> advance cur
        | _ -> fail cur "expected ',' or '}'"
      in
      loop ()

  (* [value] without the tree: the same checks in the same order, so the
     same malformed input fails with the same message. *)
  let rec skip cur =
    skip_ws cur;
    match peek cur with
    | '"' ->
        if not (plain cur) then escaped cur (Buffer.create 16)
    | '[' -> list cur skip
    | '{' -> obj cur (fun cur _ -> skip cur)
    | _ -> ignore (value cur)

  let finish cur =
    skip_ws cur;
    if not (at_end cur) then fail cur "trailing garbage"
end

let of_string s =
  let cur = Cursor.create s in
  let v = Cursor.value cur in
  Cursor.finish cur;
  v

(* ------------------------------------------------------------------ *)
(* Atomic file IO                                                      *)
(* ------------------------------------------------------------------ *)

(* Atomic sinks: write to a uniquely-named sibling temp file, publish
   with rename(2).  A crash mid-write leaves the final path either
   absent or intact, never truncated; a sibling in the same directory
   is guaranteed to be on the same filesystem, so the rename is
   atomic.  The temp name must be unique per writer
   ([Filename.temp_file] creates it with O_EXCL) — a fixed ".tmp"
   sibling would let two concurrent writers of the same path
   interleave into one temp file and publish corrupt JSON.

   Both the one-shot [to_file] and incremental writers (the telemetry
   trace exporter flushes events between experiments) go through this
   module, so the cleanup guarantees cannot drift: every exit path —
   commit, abort, or an exception between writes — either publishes
   the full file or removes the temp, never leaving a half-written
   [*.tmp] behind. *)
module Atomic = struct
  type t = {
    oc : out_channel;
    tmp : string;
    path : string;
    mutable live : bool;
  }

  let create ~path =
    let tmp =
      Filename.temp_file ~temp_dir:(Filename.dirname path)
        (Filename.basename path ^ ".") ".tmp"
    in
    match open_out tmp with
    | oc -> { oc; tmp; path; live = true }
    | exception e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e

  let channel t =
    if not t.live then invalid_arg "Json.Atomic.channel: sink already closed";
    t.oc

  let abort t =
    if t.live then begin
      t.live <- false;
      close_out_noerr t.oc;
      try Sys.remove t.tmp with Sys_error _ -> ()
    end

  let commit t =
    if t.live then begin
      t.live <- false;
      (match close_out t.oc with
      | () -> ()
      | exception e ->
          (try Sys.remove t.tmp with Sys_error _ -> ());
          raise e);
      try Sys.rename t.tmp t.path
      with e ->
        (try Sys.remove t.tmp with Sys_error _ -> ());
        raise e
    end
end

let to_file ~path doc =
  let sink = Atomic.create ~path in
  (try output_string (Atomic.channel sink) (to_string_pretty doc)
   with e ->
     Atomic.abort sink;
     raise e);
  Atomic.commit sink

let of_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string s
