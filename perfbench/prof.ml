(* A SIGPROF call-stack sampler that splits host CPU time by layer.

   [Unix.setitimer ITIMER_PROF] delivers a signal per interval of process
   CPU time; the handler takes [Printexc.get_callstack] and charges the
   innermost frame to one bucket (self) and every distinct bucket on the
   stack once (inclusive). Buckets are named after the [lib/<dir>/]
   directory a frame's source file sits in, so the split follows the
   library layout. The sampler only reads the host stack: the simulated
   world never sees it. *)

(* Library directories reported as layers, in report order. *)
let layers =
  [
    "sim"; "net"; "core"; "nfs"; "xdr"; "hash"; "storage"; "disk"; "dir"; "smallfile"; "wal";
    "qos"; "workload"; "util"; "trace";
  ]

(* Buckets outside [lib/]: the stdlib's Hashtbl and the rest of the
   stdlib, the benchmark's own code, frames from any other source and
   frames without debug information. With [layers] they partition every
   sample, so self shares sum to 100. *)
let extra_buckets = [ "stdlib.hashtbl"; "stdlib.other"; "bench"; "other"; "nodebug" ]

let buckets = layers @ extra_buckets

let own_file = "perfbench/prof.ml"

(* The bucket of a frame whose source file is [file] ([None] when the
   frame carries no debug information). *)
let bucket_of_file = function
  | None -> "nodebug"
  | Some file -> (
      let parts = String.split_on_char '/' file in
      let rec under_lib = function
        | "lib" :: dir :: _ :: _ -> Some dir
        | _ :: rest -> under_lib rest
        | [] -> None
      in
      match under_lib parts with
      | Some dir when List.mem dir layers -> dir
      | Some _ -> "other"
      | None -> (
          match parts with
          | [ "hashtbl.ml" ] | [ "stdlib"; "hashtbl.ml" ] -> "stdlib.hashtbl"
          | [ base ] | [ "stdlib"; base ] when Filename.check_suffix base ".ml" -> "stdlib.other"
          | "perfbench" :: _ -> "bench"
          | _ -> "other"))

let file_of_slot slot =
  Option.map (fun l -> l.Printexc.filename) (Printexc.Slot.location slot)

type t = {
  self : (string, int) Hashtbl.t;
  incl : (string, int) Hashtbl.t;
  mutable samples : int;
}

let create () = { self = Hashtbl.create 32; incl = Hashtbl.create 32; samples = 0 }

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Charge one stack, given as the source files of its frames, innermost
   first. The sampler's own frames on top are skipped. *)
let record_files t files =
  let rec drop_own = function
    | Some f :: rest when f = own_file -> drop_own rest
    | l -> l
  in
  let files = drop_own files in
  t.samples <- t.samples + 1;
  let bs = List.map bucket_of_file files in
  bump t.self (match bs with b :: _ -> b | [] -> "nodebug");
  List.iter (bump t.incl) (List.sort_uniq compare bs)

let sample t =
  let files =
    match Printexc.backtrace_slots (Printexc.get_callstack 256) with
    | None -> []
    | Some slots -> Array.to_list (Array.map file_of_slot slots)
  in
  record_files t files

let set_timer interval =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = interval; it_value = interval })

(* Sample every millisecond of process CPU time. *)
let start t =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> sample t));
  set_timer 0.001

let stop () =
  set_timer 0.0;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let share tbl t b =
  Ledger.ratio (100.0 *. float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl b)))
    (float_of_int t.samples)

let self_pct t b = share t.self t b
let incl_pct t b = share t.incl t b
