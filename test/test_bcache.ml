(* The buffer cache against its previous implementation (test/oracle,
   kept verbatim): the same scripts of reads, writes, commits and
   invalidates, run by the same fibers over the same recording backend,
   must produce the same backend calls at the same simulated times, the
   same counters after every op and the same fiber wake times. Plus the
   record-retirement bound on invalidated objects. *)

open Helpers
module Engine = Slice_sim.Engine
module Bcache = Slice_disk.Bcache

module type CACHE = sig
  type backend = {
    demand_read : obj:int64 -> block:int -> count:int -> sequential:bool -> unit;
    readahead : obj:int64 -> block:int -> count:int -> unit;
    write_back : obj:int64 -> block:int -> count:int -> done_:(unit -> unit) -> unit;
    sync : unit -> unit;
  }

  type t

  val create : Engine.t -> backend:backend -> capacity:int -> name:string -> t
  val read : t -> obj:int64 -> block:int -> unit
  val write : t -> obj:int64 -> block:int -> unit
  val commit : t -> obj:int64 -> unit
  val commit_all : t -> unit
  val invalidate_object : t -> int64 -> unit
  val drop_clean : t -> unit
  val hits : t -> int
  val misses : t -> int
  val prefetched_blocks : t -> int
  val resident_bytes : t -> int
end

type op =
  | Read of int64 * int
  | Write of int64 * int
  | Commit of int64
  | Commit_all
  | Invalidate of int64
  | Drop_clean (* after a commit_all: a cold mount of a clean cache *)
  | Sleep of int (* tenths of a millisecond *)

let op_name = function
  | Read (o, b) -> Printf.sprintf "read %Ld/%d" o b
  | Write (o, b) -> Printf.sprintf "write %Ld/%d" o b
  | Commit o -> Printf.sprintf "commit %Ld" o
  | Commit_all -> "commit_all"
  | Invalidate o -> Printf.sprintf "invalidate %Ld" o
  | Drop_clean -> "drop_clean"
  | Sleep n -> Printf.sprintf "sleep %d" n

(* Runs [fibers] (each a list of ops, spawned in order) against a fresh
   cache of [capacity] blocks and returns the trace: every backend call
   and write-back completion with its simulated time, and after every op
   its fiber, name, wake time and the cache's counters. [demand_read]
   parks for a block-dependent 1–3 ms, so readers interleave with
   writers; write-backs complete 0.5 ms per block later. *)
module Replay (C : CACHE) = struct
  let run ~capacity fibers =
    let eng = Engine.create () in
    let trace = ref [] in
    let log fmt = Printf.ksprintf (fun s -> trace := s :: !trace) fmt in
    let now () = Engine.now eng in
    let backend =
      {
        C.demand_read =
          (fun ~obj ~block ~count ~sequential ->
            log "%.6f demand %Ld/%d+%d seq=%b" (now ()) obj block count sequential;
            Engine.sleep eng (1e-3 *. float_of_int (1 + (block mod 3))));
        readahead = (fun ~obj ~block ~count -> log "%.6f readahead %Ld/%d+%d" (now ()) obj block count);
        write_back =
          (fun ~obj ~block ~count ~done_ ->
            log "%.6f write_back %Ld/%d+%d" (now ()) obj block count;
            Engine.schedule eng
              (5e-4 *. float_of_int count)
              (fun () ->
                log "%.6f done %Ld/%d+%d" (now ()) obj block count;
                done_ ()));
        sync =
          (fun () ->
            log "%.6f sync" (now ());
            Engine.sleep eng 1e-4);
      }
    in
    let c = C.create eng ~backend ~capacity:(capacity * Bcache.block_size) ~name:"c" in
    List.iteri
      (fun i ops ->
        Engine.spawn eng (fun () ->
            List.iter
              (fun op ->
                (match op with
                | Read (obj, block) -> C.read c ~obj ~block
                | Write (obj, block) -> C.write c ~obj ~block
                | Commit obj -> C.commit c ~obj
                | Commit_all -> C.commit_all c
                | Invalidate obj -> C.invalidate_object c obj
                | Drop_clean ->
                    C.commit_all c;
                    C.drop_clean c
                | Sleep n -> Engine.sleep eng (1e-4 *. float_of_int n));
                log "%.6f fiber %d %s: hits %d misses %d prefetched %d resident %d" (now ()) i
                  (op_name op) (C.hits c) (C.misses c) (C.prefetched_blocks c)
                  (C.resident_bytes c))
              ops;
            log "%.6f fiber %d finished" (now ()) i))
      fibers;
    Engine.run eng;
    List.rev !trace
end

module New = Replay (Bcache)
module Old = Replay (Bcache_oracle)

(* Equal traces, or the first line where they part. *)
let same_trace ~capacity fibers =
  let rec first_diff i = function
    | [], [] -> None
    | o :: os, n :: ns -> if o = n then first_diff (i + 1) (os, ns) else Some (i, o, n)
    | o :: _, [] -> Some (i, o, "<end>")
    | [], n :: _ -> Some (i, "<end>", n)
  in
  let old_trace = Old.run ~capacity fibers and new_trace = New.run ~capacity fibers in
  match first_diff 0 (old_trace, new_trace) with
  | None -> Ok new_trace
  | Some (i, o, n) -> Error (Printf.sprintf "traces part at line %d:\n  old: %s\n  new: %s" i o n)

let check_same ~capacity fibers =
  match same_trace ~capacity fibers with Ok tr -> tr | Error msg -> Alcotest.fail msg

let count_lines needle trace =
  List.length
    (List.filter
       (fun l ->
         let n = String.length needle and m = String.length l in
         let rec at i = i + n <= m && (String.sub l i n = needle || at (i + 1)) in
         at 0)
       trace)

(* ---- the random differential property ---- *)

let gen_op =
  let open QCheck2.Gen in
  let obj = map Int64.of_int (int_range 1 4) in
  (* mostly short forward strides, so prefetch windows and runs form *)
  let block = frequency [ (3, int_range 0 12); (1, int_range 0 48) ] in
  frequency
    [
      (5, map2 (fun o b -> Read (o, b)) obj block);
      (5, map2 (fun o b -> Write (o, b)) obj block);
      (2, map (fun o -> Commit o) obj);
      (1, pure Commit_all);
      (2, map (fun o -> Invalidate o) obj);
      (1, pure Drop_clean);
      (2, map (fun n -> Sleep n) (int_range 1 30));
    ]

let gen_script =
  let open QCheck2.Gen in
  pair (int_range 3 40) (list_size (int_range 2 3) (list_size (int_range 0 40) gen_op))

let print_script (capacity, fibers) =
  Printf.sprintf "capacity %d blocks\n%s" capacity
    (String.concat "\n"
       (List.mapi
          (fun i ops -> Printf.sprintf "fiber %d: %s" i (String.concat "; " (List.map op_name ops)))
          fibers))

let differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"bcache matches the reference cache" ~print:print_script
       gen_script (fun (capacity, fibers) ->
         match same_trace ~capacity fibers with
         | Ok _ -> true
         | Error msg -> QCheck2.Test.fail_report msg))

(* ---- fixed cases for the paths random scripts rarely reach ---- *)

(* 600 sequential writes to one object: the 512th dirty block triggers
   the background write-behind as one clustered 512-block transfer. *)
let high_water_flush () =
  let tr = check_same ~capacity:1024 [ List.init 600 (fun b -> Write (1L, b)) @ [ Commit 1L ] ] in
  check_int "one 512-block run" 1 (count_lines "write_back 1/0+512" tr);
  check_int "commit flushes the rest" 1 (count_lines "write_back 1/512+88" tr)

(* Ten objects of 420 dirty blocks each, below the high-water mark: the
   4097th dirty block stalls the writer with nothing in flight, so the
   throttle flushes every dirty object, in the order of the per-object
   table — which the traces must agree on. Ids spread over the int64
   range so that order is not the id order. *)
let throttle_flush_order () =
  let ids = List.init 10 (fun i -> Int64.mul (Int64.of_int (i + 1)) 0x2545F4914F6CDD1DL) in
  let writes = List.concat_map (fun o -> List.init 420 (fun b -> Write (o, b))) ids in
  let tr = check_same ~capacity:5000 [ writes @ [ Commit_all ] ] in
  check_bool "throttle flushed every object" true (count_lines "+420" tr >= 9)

(* A reader parks on a miss; a writer dirties the same block meanwhile;
   the reader's insert displaces the dirty copy, which must be written
   back before the clean copy goes on the list. *)
let displaced_while_parked () =
  let tr = check_same ~capacity:8 [ [ Read (1L, 5) ]; [ Sleep 2; Write (1L, 5) ] ] in
  check_int "displaced dirty block written back" 1 (count_lines "write_back 1/5+1" tr)

(* A block evicted dirty is in flight when its object is invalidated; a
   commit of the id afterwards still waits for that write-back. *)
let barrier_across_invalidate () =
  let tr =
    check_same ~capacity:3
      [ [ Write (1L, 0); Write (2L, 0); Write (2L, 1); Write (2L, 2); Invalidate 1L; Commit 1L ] ]
  in
  check_int "evicted block written back" 1 (count_lines "write_back 1/0+1" tr)

(* ---- invalidated objects leave nothing behind ---- *)

let invalidated_records_retire () =
  let eng = Engine.create () in
  let backend =
    {
      Bcache.demand_read = (fun ~obj:_ ~block:_ ~count:_ ~sequential:_ -> ());
      readahead = (fun ~obj:_ ~block:_ ~count:_ -> ());
      write_back = (fun ~obj:_ ~block:_ ~count:_ ~done_ -> Engine.schedule eng 1e-4 done_);
      sync = (fun () -> ());
    }
  in
  let c = Bcache.create eng ~backend ~capacity:(1 lsl 20) ~name:"c" in
  let after_100 = ref 0 in
  run_on eng (fun () ->
      for i = 1 to 10_000 do
        let obj = Int64.of_int i in
        Bcache.write c ~obj ~block:0;
        Bcache.commit c ~obj;
        Bcache.invalidate_object c obj;
        if i = 100 then after_100 := Obj.reachable_words (Obj.repr c)
      done);
  let final = Obj.reachable_words (Obj.repr c) in
  check_bool
    (Printf.sprintf "cache words %d after 10000 cycles vs %d after 100" final !after_100)
    true
    (final < 2 * !after_100)

let suite =
  [
    differential;
    ("high-water flush matches reference", `Quick, high_water_flush);
    ("throttle flush order matches reference", `Quick, throttle_flush_order);
    ("displaced while a reader is parked", `Quick, displaced_while_parked);
    ("commit barrier across invalidate", `Quick, barrier_across_invalidate);
    ("invalidated records retire", `Quick, invalidated_records_retire);
  ]
