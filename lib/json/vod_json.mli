(** The one JSON codec of the project: string escaping for the JSONL
    writers ([vod-chaos/1], [vod-serve/1], [vod-slo/1],
    [vod-scorecard/1], [vod-obs/1]) and a small reader for the traces
    and bench records they produce.  Stdlib only, so the bench gate
    ([bench/compare.exe]) can link it without the code under test. *)

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): the
    double quote and the backslash are backslash-escaped, newline and
    tab become [\n] and [\t], any other byte below 0x20 becomes
    [\u00XX], and every other byte is copied verbatim. *)

type t =
  | Obj of (string * t) list  (** Fields in document order. *)
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

exception Parse of string
(** A syntax error, with the byte offset where it was found. *)

val parse : string -> t
(** Parse one JSON document (surrounding whitespace allowed).  Strings
    accept the two-character escapes of JSON and [\uXXXX]; a
    [\u] code point below 0x80 decodes to that byte, any other to ['?'].
    [parse ("\"" ^ escape s ^ "\"") = Str s] for every byte string [s].
    @raise Parse on malformed input or trailing garbage. *)

val field : string -> t -> t option
(** [field key (Obj fields)] is the first value bound to [key]; [None]
    for a missing key or a non-object. *)
