(* R1 fixture: hash tables in long-lived modules need a bound or a
   bounded pragma with a reason. *)

type t = { cache : (int, string) Hashtbl.t; log : (int, string) Hashtbl.t }

(* Positive: no bound, no pragma. *)
let create () = { cache = Hashtbl.create 64; log = Hashtbl.create 64 }

(* Suppressed: the pragma line covers the allocation below it. *)
let create_bounded () =
  (* lint: bounded — fixture: rows retired when the request completes *)
  Hashtbl.create 64

(* Functorized tables allocate through the functor's [create]. *)
module Ids = Hashtbl.Make (Int)

(* Positive: a functorized table with no bound and no pragma. *)
let ids () : string Ids.t = Ids.create 64

(* Suppressed: the pragma covers a functorized table too. *)
let ids_bounded () : string Ids.t =
  (* lint: bounded — fixture: one row per live request *)
  Ids.create 64
