(* A fixed CPU kernel that gauges how fast the host runs right now.

   On a shared machine other tenants slow the whole core, by up to 1.75x
   in phases of tens of seconds; no statistic over one run removes that.
   The kernel mixes what the simulator spends its time on -- minor
   allocation, Hashtbl traffic and scattered reads over a few MB -- and
   touches no library code, so a change to the program cannot move it.
   Host times are reported scaled to a core on which one kernel run
   takes [reference] seconds. *)

let reference = 0.010

let table = lazy (Array.init (1 lsl 19) (fun i -> (i * 2654435761) land ((1 lsl 19) - 1)))

let kernel () =
  let table = Lazy.force table in
  let h = Hashtbl.create 1024 in
  let acc = ref 0.0 and j = ref 0 in
  for i = 0 to 20_000 do
    Hashtbl.replace h ((i * 7919) land 0xffff) (float_of_int i);
    (match Hashtbl.find_opt h (i land 0xffff) with Some v -> acc := !acc +. v | None -> ());
    j := table.(!j lxor (i land 7))
  done;
  let l = List.init 10_000 (fun i -> (i * 48271) mod 65537) in
  ignore (Sys.opaque_identity (!acc, !j, List.sort compare l))

(* CPU seconds of the median of three kernel runs. *)
let measure () =
  Ledger.median
    (List.init 3 (fun _ ->
         let t0 = Sys.time () in
         kernel ();
         Sys.time () -. t0))
