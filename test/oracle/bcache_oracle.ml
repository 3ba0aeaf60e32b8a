module Engine = Slice_sim.Engine

let block_size = 8192

type backend = {
  demand_read : obj:int64 -> block:int -> count:int -> sequential:bool -> unit;
  readahead : obj:int64 -> block:int -> count:int -> unit;
  write_back : obj:int64 -> block:int -> count:int -> done_:(unit -> unit) -> unit;
  sync : unit -> unit;
}

let disk_backend eng disk =
  {
    demand_read =
      (fun ~obj:_ ~block:_ ~count ~sequential ->
        Disk.read disk ~sequential ~bytes:(count * block_size) ());
    readahead =
      (fun ~obj:_ ~block:_ ~count ->
        ignore (Disk.read_async disk ~sequential:true ~bytes:(count * block_size)));
    write_back =
      (fun ~obj:_ ~block:_ ~count ~done_ ->
        let finish =
          Disk.write_async disk ~sequential:(count > 1) ~bytes:(count * block_size)
        in
        Engine.schedule_at eng finish done_);
    sync = (fun () -> ());
  }

type key = int64 * int

type entry = { mutable dirty : bool }

type t = {
  eng : Engine.t;
  backend : backend;
  cache : (key, entry) Slice_util.Lru.t;
  last_access : (int64, int) Hashtbl.t;
  dirty_index : (int64, (int, entry) Hashtbl.t) Hashtbl.t; (* obj -> dirty blocks *)
  mutable hits : int;
  mutable misses : int;
  mutable prefetched : int;
  inflight : int ref; (* outstanding write-backs *)
  inflight_blocks : int ref;
  total_dirty : int ref;
  obj_inflight : (int64, int ref) Hashtbl.t; (* per-object outstanding *)
  obj_done : (int64, int ref) Hashtbl.t; (* per-object completed write-backs *)
  obj_waiters : (int64, (unit -> unit) list ref) Hashtbl.t;
  waiters : (unit -> unit) list ref; (* fibers parked in commit_all *)
  throttle_waiters : (unit -> unit) list ref; (* writers parked by the throttle *)
}

(* Write-behind high water: once an object accumulates this many dirty
   blocks the cache starts flushing them in the background, like the
   FreeBSD buffer daemon — so a long sequential write streams to disk
   instead of leaving one giant flush for commit. *)
let high_water_blocks = 512

(* Dirty throttle: writers stall once this much data is dirty or in
   flight, so a sustained write stream runs at the backend's sink rate
   (the buffer daemon's flow control). 32 MB per cache; stalled writers
   resume as soon as a completion frees room, so the stream runs at
   exactly the sink rate instead of convoying behind a full drain. *)
let max_outstanding_blocks = 4096

let prefetch_blocks = 32 (* 256 KB / 8 KB *)

let counter tbl obj =
  match Hashtbl.find_opt tbl obj with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace tbl obj r;
      r

let start_write_back t ~obj ~block ~count =
  incr t.inflight;
  t.inflight_blocks := !(t.inflight_blocks) + count;
  let oc = counter t.obj_inflight obj in
  incr oc;
  t.backend.write_back ~obj ~block ~count ~done_:(fun () ->
      decr t.inflight;
      t.inflight_blocks := !(t.inflight_blocks) - count;
      decr oc;
      if !oc = 0 then Hashtbl.remove t.obj_inflight obj;
      incr (counter t.obj_done obj);
      (* commit barriers re-check their own completion predicates *)
      (match Hashtbl.find_opt t.obj_waiters obj with
      | Some ws ->
          Hashtbl.remove t.obj_waiters obj;
          List.iter (fun w -> w ()) !ws
      | None -> ());
      if !(t.total_dirty) + !(t.inflight_blocks) < max_outstanding_blocks then begin
        let ws = !(t.throttle_waiters) in
        t.throttle_waiters := [];
        List.iter (fun w -> w ()) ws
      end;
      if !(t.inflight) = 0 then begin
        let ws = !(t.waiters) in
        t.waiters := [];
        List.iter (fun w -> w ()) ws
      end)

let create eng ~backend ~capacity ~name:_ =
  (* the eviction hook needs the cache record, which needs the Lru: tie
     the knot through a forward reference *)
  let self = ref None in
  let on_evict (obj, block) (e : entry) =
    match !self with
    | None -> ()
    | Some t ->
        if e.dirty then begin
          e.dirty <- false;
          decr t.total_dirty;
          (match Hashtbl.find_opt t.dirty_index obj with
          | Some tbl -> Hashtbl.remove tbl block
          | None -> ());
          start_write_back t ~obj ~block ~count:1
        end
  in
  let t =
    {
      eng;
      backend;
      cache = Slice_util.Lru.create ~on_evict ~capacity ();
      (* lint: bounded — one row per object of the store: prefetch hint *)
      last_access = Hashtbl.create 64;
      (* lint: bounded — per-object dirty sets, drained by write-back/commit *)
      dirty_index = Hashtbl.create 16;
      hits = 0;
      misses = 0;
      prefetched = 0;
      inflight = ref 0;
      inflight_blocks = ref 0;
      total_dirty = ref 0;
      (* lint: bounded — rows removed when an object's write-backs drain *)
      obj_inflight = Hashtbl.create 16;
      (* lint: bounded — one counter row per object of the store *)
      obj_done = Hashtbl.create 16;
      (* lint: bounded — rows removed when the waiters are woken *)
      obj_waiters = Hashtbl.create 16;
      waiters = ref [];
      throttle_waiters = ref [];
    }
  in
  self := Some t;
  t

let insert t key entry = Slice_util.Lru.add t.cache ~weight:block_size key entry
(* A forward stride of up to one stripe chunk (4 blocks of 8 KB under the
   32 KB stripe unit) still reads as a sequential stream to the drive —
   this is how a client alternating between mirrors keeps triggering
   contiguous prefetch whose skipped half goes unused. *)
let sequentialish ~last ~block = block > last && block - last <= 8

let read t ~obj ~block =
  let key = (obj, block) in
  (match Slice_util.Lru.find t.cache key with
  | Some _ -> t.hits <- t.hits + 1
  | None ->
      t.misses <- t.misses + 1;
      let seq =
        match Hashtbl.find_opt t.last_access obj with
        | Some last -> sequentialish ~last ~block
        | None -> block = 0
      in
      if seq then begin
        (* Wait for the demand block only; stream the readahead window
           behind it asynchronously (FFS-style pipelined prefetch, up to
           256 KB beyond the current access). *)
        t.backend.demand_read ~obj ~block ~count:1 ~sequential:(block <> 0);
        insert t key { dirty = false };
        let run = ref 0 in
        while
          !run < prefetch_blocks - 1
          && not (Slice_util.Lru.mem t.cache (obj, block + 1 + !run))
        do
          incr run
        done;
        if !run > 0 then begin
          t.backend.readahead ~obj ~block:(block + 1) ~count:!run;
          for i = 1 to !run do
            insert t (obj, block + i) { dirty = false }
          done;
          t.prefetched <- t.prefetched + !run
        end
      end
      else begin
        t.backend.demand_read ~obj ~block ~count:1 ~sequential:false;
        insert t key { dirty = false }
      end);
  Hashtbl.replace t.last_access obj block

let dirty_tbl t obj =
  match Hashtbl.find_opt t.dirty_index obj with
  | Some tbl -> tbl
  | None ->
      (* lint: bounded — dirty blocks of one object, capped by cache capacity *)
      let tbl = Hashtbl.create 64 in
      Hashtbl.replace t.dirty_index obj tbl;
      tbl

let mark_dirty t obj block (e : entry) =
  if not e.dirty then incr t.total_dirty;
  e.dirty <- true;
  Hashtbl.replace (dirty_tbl t obj) block e

let dirty_blocks_of t obj =
  match Hashtbl.find_opt t.dirty_index obj with
  | None -> []
  | Some tbl ->
      List.sort (fun (a, _) (b, _) -> compare a b)
        (Hashtbl.fold (fun b e acc -> (b, e) :: acc) tbl [])

(* Cluster contiguous dirty blocks into single transfers. *)
let flush_dirty t obj blocks =
  let tbl = dirty_tbl t obj in
  let clean b (e : entry) =
    if e.dirty then decr t.total_dirty;
    e.dirty <- false;
    Hashtbl.remove tbl b
  in
  let rec loop = function
    | [] -> ()
    | (b0, (e0 : entry)) :: rest ->
        clean b0 e0;
        let rec extend prev n = function
          | (b, (e : entry)) :: tl when b = prev + 1 ->
              clean b e;
              extend b (n + 1) tl
          | tl -> (n, tl)
        in
        let run_len, rest = extend b0 1 rest in
        start_write_back t ~obj ~block:b0 ~count:run_len;
        loop rest
  in
  loop blocks

let write t ~obj ~block =
  let key = (obj, block) in
  (match Slice_util.Lru.find t.cache key with
  | Some e ->
      t.hits <- t.hits + 1;
      mark_dirty t obj block e
  | None ->
      t.misses <- t.misses + 1;
      let e = { dirty = false } in
      insert t key e;
      mark_dirty t obj block e);
  Hashtbl.replace t.last_access obj block;
  (* background write-behind past the high-water mark *)
  if Hashtbl.length (dirty_tbl t obj) >= high_water_blocks then
    flush_dirty t obj (dirty_blocks_of t obj);
  (* Dirty throttle: stall the writer while the backend is far behind;
     re-checked on every write-back completion. Flushing the writer's own
     object here would shred streams into tiny runs (writers park
     mid-request), so when the backend goes idle we flush EVERY object's
     accumulated dirty set — each a contiguous clustered run — and let
     completions pace the writers. *)
  while !(t.total_dirty) + !(t.inflight_blocks) > max_outstanding_blocks do
    if !(t.inflight) = 0 then begin
      let objs = Hashtbl.fold (fun o _ acc -> o :: acc) t.dirty_index [] in
      List.iter (fun o -> flush_dirty t o (dirty_blocks_of t o)) objs
    end
    else
      Engine.suspend (fun wake -> t.throttle_waiters := (fun () -> wake ()) :: !(t.throttle_waiters))
  done

let wait_idle t =
  while !(t.inflight) > 0 do
    Engine.suspend (fun wake -> t.waiters := (fun () -> wake ()) :: !(t.waiters))
  done

(* Commit waits only for the write-backs of ITS object that are already
   booked when it runs — not for other streams' data, and not for writes
   that arrive later (a file can be committed while still being
   written). *)
let wait_obj_barrier t obj =
  let target = !(counter t.obj_done obj) + !(counter t.obj_inflight obj) in
  if not (Hashtbl.mem t.obj_inflight obj) then Hashtbl.remove t.obj_inflight obj;
  while !(counter t.obj_done obj) < target do
    Engine.suspend (fun wake ->
        let ws =
          match Hashtbl.find_opt t.obj_waiters obj with
          | Some ws -> ws
          | None ->
              let ws = ref [] in
              Hashtbl.replace t.obj_waiters obj ws;
              ws
        in
        ws := (fun () -> wake ()) :: !ws)
  done

let commit t ~obj =
  flush_dirty t obj (dirty_blocks_of t obj);
  wait_obj_barrier t obj;
  t.backend.sync ()

let commit_all t =
  let objs = Hashtbl.fold (fun o _ acc -> o :: acc) t.dirty_index [] in
  List.iter (fun o -> flush_dirty t o (dirty_blocks_of t o)) objs;
  wait_idle t;
  t.backend.sync ()

let invalidate_object t obj =
  let keys = ref [] in
  Slice_util.Lru.iter t.cache (fun (o, b) e ->
      if o = obj then begin
        if e.dirty then decr t.total_dirty;
        e.dirty <- false;
        keys := (o, b) :: !keys
      end);
  List.iter (Slice_util.Lru.remove t.cache) !keys;
  Hashtbl.remove t.dirty_index obj;
  Hashtbl.remove t.last_access obj

let drop_clean t =
  (* Invalidate the whole cache (e.g. to model a cold mount). Dirty data
     must have been committed first. *)
  Slice_util.Lru.clear t.cache;
  Hashtbl.reset t.dirty_index;
  Hashtbl.reset t.last_access

let hits t = t.hits
let misses t = t.misses
let prefetched_blocks t = t.prefetched
let resident_bytes t = Slice_util.Lru.size t.cache
