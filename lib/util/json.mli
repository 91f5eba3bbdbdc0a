(** Minimal dependency-free JSON, for machine-readable bench artifacts.

    The experiment harness writes one [BENCH_E<id>.json] file per
    experiment so that performance and measured quantities leave a
    trajectory that later PRs can diff mechanically, instead of only
    ASCII tables on stdout.  This module is deliberately tiny: a value
    type, a compact/pretty emitter, and a strict parser sufficient to
    round-trip what the emitter produces (used by the tests and by the
    CI smoke check).  It is not a general-purpose JSON library — no
    streaming, no number-precision haggling beyond what [float]
    carries. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact serialization (no insignificant whitespace).  Non-finite
    floats have no strict-JSON literal and are emitted as the de-facto
    extension tokens [NaN], [Infinity] and [-Infinity] (accepted by
    {!of_string}, Python's [json], and most lenient parsers), so every
    [Float] — finite or not — round-trips instead of collapsing to
    [null]. *)

val to_string_pretty : t -> string
(** Two-space-indented serialization, trailing newline, for artifacts
    meant to be read (and diffed) by humans too. *)

val of_string : string -> t
(** Strict parser for the JSON subset the emitter produces (which is
    all of standard JSON except non-UTF-8 escapes are passed through
    decoded).  Numbers without [.], [e] or [E] parse as [Int], others
    as [Float].
    @raise Failure with a position-annotated message on malformed
    input or trailing garbage. *)

val member : string -> t -> t option
(** [member key (Obj _)] is the first binding of [key], if any; [None]
    on non-objects. *)

(** The parser's cursor, for a caller that walks one document without
    building all of it: it can validate and skip a value, or take a
    string literal as a slice of the text.  {!of_string} is built on
    the same functions, so a document fails here exactly where, and
    with exactly the message, it fails there.  Every function raises
    [Failure] as {!of_string} does. *)
module Cursor : sig
  type json := t
  type t

  val create : ?pos:int -> string -> t
  (** A cursor on the text at byte [pos] (default 0). *)

  val pos : t -> int

  val next_is : t -> char -> bool
  (** Skip whitespace; is the next byte the given one? *)

  val value : t -> json
  (** Parse one value (leading whitespace allowed). *)

  val skip : t -> unit
  (** Validate one value and move past it without building it; no
      allocation unless a string in it has escapes. *)

  val slice : t -> string * int * int
  (** The string literal at the cursor (leading whitespace allowed) as
      [(s, off, len)]: when it has no escapes, a view of the text
      itself ([s] is the text, not a copy); otherwise its decoded
      contents ([off = 0]). *)

  val list : t -> (t -> unit) -> unit
  (** [list c item] parses a JSON array, calling [item c] once per
      element; [item] must consume exactly one value. *)

  val obj : t -> (t -> string -> unit) -> unit
  (** [obj c member] parses a JSON object, calling [member c key] once
      per member with the cursor before its value; [member] must
      consume exactly that value. *)

  val finish : t -> unit
  (** Only whitespace may remain; fails with ["trailing garbage"]
      otherwise. *)
end

(** Atomic file publication, shared by {!to_file} and incremental
    writers (the telemetry trace exporter).  A sink writes to a
    uniquely-named sibling temp file; {!Atomic.commit} renames it into
    place (atomic within a filesystem), {!Atomic.abort} removes it.
    Whatever the exit path — commit, abort, or an exception between
    incremental writes followed by abort — no half-written [*.tmp]
    survives at the destination directory. *)
module Atomic : sig
  type t

  val create : path:string -> t
  (** Open a unique temp sibling of [path] for writing.  The parent
      directory must exist. *)

  val channel : t -> out_channel
  (** The channel to write through.  Flush it to make incremental
      progress durable.
      @raise Invalid_argument after {!commit} or {!abort}. *)

  val commit : t -> unit
  (** Flush, close and rename into place.  Idempotent; removes the
      temp file if the final close or rename fails. *)

  val abort : t -> unit
  (** Close and delete the temp file without publishing.
      Idempotent. *)
end

val to_file : path:string -> t -> unit
(** [to_file ~path doc] writes [to_string_pretty doc] to [path]
    {e atomically} through {!Atomic}: the document goes to a unique
    temp sibling first and is renamed into place, so a crash mid-write
    never leaves a truncated artifact at [path]; the temp file is
    removed on any exception. *)

val of_file : string -> t
(** [of_file path] parses the whole file as one document.
    @raise Failure as {!of_string}, or [Sys_error] on IO errors. *)
