(** Minimal JSON document type with a canonical, deterministic printer.

    Every JSON the toolchain emits — `ndroid analyze --json`, the pipeline
    wire protocol, the on-disk result cache, the BENCH_*.json experiment
    records — goes through this one printer, so byte-for-byte comparison of
    outputs is meaningful: object keys are sorted, there is no insignificant
    whitespace, and numbers print the same way everywhere.  The parser
    accepts exactly what the printer produces (plus whitespace), which is
    all the round-trip the cache and [of_json] decoders need. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** key order is irrelevant: printing sorts *)

val to_string : t -> string
(** Canonical form: sorted object keys, no whitespace, strings escaped,
    floats as shortest round-trippable decimal. *)

val to_string_hum : t -> string
(** Same canonical key order, but indented for human eyes (used by the
    BENCH_*.json writers). *)

val max_depth : int
(** The deepest nesting of arrays and objects {!of_string} accepts. *)

val of_string : string -> (t, string) result
(** Parse a JSON document.  [Error msg] carries the byte offset.  A
    document nested deeper than {!max_depth} is an [Error]. *)

(** {1 Decoding helpers} *)

val member : string -> t -> t option
val str : t -> string option
val int : t -> int option
val bool : t -> bool option
val list : t -> t list option
