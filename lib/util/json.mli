(** Minimal JSON emit/parse for the bench harness's machine-readable
    output (BENCH.json) and its gate checks — no external
    dependency, no streaming, strings are BMP-only. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Pretty-printed with two-space indentation; integral floats render
    without a decimal point. *)

val of_string : string -> t
(** Raises {!Parse_error} on malformed input or trailing data. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other variants. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
