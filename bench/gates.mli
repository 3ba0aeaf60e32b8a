(** The declarative gate list of BENCH.json and its one checker.

    A gate [{name; path; op; bound}] holds when every number at [path]
    satisfies [op bound]. Paths are dot-separated keys into the
    artifact's sections; [*] fans out over every element of an array
    (each must pass) and [#] is the length of the array or string it
    follows. A path that is missing, reaches no value, or lands on
    anything but a number fails its gate. *)

type op = Lt | Le | Gt | Ge | Eq
type gate = { name : string; path : string; op : op; bound : float }

val packet_words_budget : float
(** 64: the µproxy packet path's words-per-packet ceiling. *)

val all : gate list
(** Every gate [bench --smoke] declares, in section order. *)

val section : gate -> string
(** The top-level section a gate's path starts in. *)

val to_json : gate -> Slice_util.Json.t

val check : Slice_util.Json.t -> string list
(** Check every gate the artifact declares in its [gates] list against
    the artifact itself: one line per failed gate, each starting
    ["gate <name> "]; [[]] when all pass. An artifact declaring no gates
    fails. *)
