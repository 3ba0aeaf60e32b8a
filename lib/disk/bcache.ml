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

(* Block numbers hash to themselves, so a sequential stream fills
   consecutive buckets. Object ids fold their high half into the low
   bits the bucket index keeps. *)
module Blocks = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash b = b land max_int
end)

module Objs = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash o = Int64.to_int (Int64.logxor o (Int64.shift_right_logical o 32)) land max_int
end)

(* Everything the cache knows about one object, found once by id. *)
type obj = {
  id : int64;
  resident : node Blocks.t;
  dirty_blocks : node Blocks.t; (* the dirty subset of [resident] *)
  mutable last : int; (* last block read or written: the prefetch detector *)
  mutable ordered : bool; (* has a row in [t.order] *)
  mutable inflight : int; (* write-backs outstanding *)
  mutable completed : int; (* write-backs stable *)
  mutable waiters : (unit -> unit) list; (* commit barriers *)
}

(* A resident 8 KB block on the cache-wide LRU list. *)
and node = {
  owner : obj;
  block : int;
  mutable dirty : bool;
  mutable prev : node;
  mutable next : node;
}

type t = {
  backend : backend;
  capacity : int;
  lru : node; (* sentinel: [lru.next] is the most recent block, [lru.prev] the least *)
  mutable blocks : int; (* nodes on the list *)
  objs : obj Objs.t;
  (* The objects [commit_all] and the throttle flush, in [Hashtbl.fold]
     order. That order sets the disk schedule, so this table must see
     exactly the insertions and removals of the per-object dirty index
     it replaces: a row on the first [write] or [commit] of an object,
     dropped by [invalidate_object], all dropped by [drop_clean]. *)
  order : (int64, obj) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable prefetched : int;
  mutable inflight : int; (* outstanding write-backs *)
  mutable inflight_blocks : int;
  mutable total_dirty : int;
  mutable waiters : (unit -> unit) list; (* fibers parked in commit_all *)
  mutable throttle_waiters : (unit -> unit) list; (* writers parked by the throttle *)
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
let no_access = min_int

let new_obj id =
  {
    id;
    (* lint: bounded — one object's blocks, capped by the cache capacity *)
    resident = Blocks.create 16;
    (* lint: bounded — a subset of the resident blocks *)
    dirty_blocks = Blocks.create 16;
    last = no_access;
    ordered = false;
    inflight = 0;
    completed = 0;
    waiters = [];
  }

let find_obj t id =
  match Objs.find t.objs id with
  | o -> o
  | exception Not_found ->
      let o = new_obj id in
      Objs.add t.objs id o;
      o

(* Reset an object to knowing nothing; its write-back counts stay. *)
let forget t (o : obj) =
  if o.ordered then Hashtbl.remove t.order o.id;
  o.ordered <- false;
  o.last <- no_access;
  Blocks.reset o.resident;
  Blocks.reset o.dirty_blocks

(* A forgotten object with nothing in flight and no barrier parked on it
   holds only its completion count, which no barrier can read again: a
   later [commit] of the id starts a new record whose target, 0 + 0,
   waits for nothing, as k + 0 did. *)
let idle (o : obj) = o.inflight = 0 && match o.waiters with [] -> true | _ -> false

let retire t (o : obj) =
  if idle o && (not o.ordered) && o.last = no_access && Blocks.length o.resident = 0 then
    Objs.remove t.objs o.id

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.prev <- t.lru;
  n.next <- t.lru.next;
  t.lru.next.prev <- n;
  t.lru.next <- n

let promote t n =
  if t.lru.next != n then begin
    unlink n;
    push_front t n
  end

let start_write_back t (o : obj) ~block ~count =
  t.inflight <- t.inflight + 1;
  t.inflight_blocks <- t.inflight_blocks + count;
  o.inflight <- o.inflight + 1;
  t.backend.write_back ~obj:o.id ~block ~count ~done_:(fun () ->
      t.inflight <- t.inflight - 1;
      t.inflight_blocks <- t.inflight_blocks - count;
      o.inflight <- o.inflight - 1;
      o.completed <- o.completed + 1;
      (* commit barriers re-check their own completion predicates *)
      let ws = o.waiters in
      o.waiters <- [];
      List.iter (fun w -> w ()) ws;
      retire t o;
      if t.total_dirty + t.inflight_blocks < max_outstanding_blocks then begin
        let ws = t.throttle_waiters in
        t.throttle_waiters <- [];
        List.iter (fun w -> w ()) ws
      end;
      if t.inflight = 0 then begin
        let ws = t.waiters in
        t.waiters <- [];
        List.iter (fun w -> w ()) ws
      end)

(* Take a block off the list; a dirty one is written back, as when
   capacity pressure or a newer copy of the same block displaces it. *)
let displace t n =
  unlink n;
  t.blocks <- t.blocks - 1;
  let o = n.owner in
  Blocks.remove o.resident n.block;
  if n.dirty then begin
    n.dirty <- false;
    t.total_dirty <- t.total_dirty - 1;
    Blocks.remove o.dirty_blocks n.block;
    start_write_back t o ~block:n.block ~count:1
  end

(* A block already resident — a reader parked in [demand_read] can race a
   writer to it — is displaced before the new node goes on the list. *)
let insert t o block =
  (match Blocks.find o.resident block with
  | old -> displace t old
  | exception Not_found -> ());
  let n = { owner = o; block; dirty = false; prev = t.lru; next = t.lru } in
  Blocks.add o.resident block n;
  t.blocks <- t.blocks + 1;
  push_front t n;
  while t.blocks * block_size > t.capacity do
    displace t t.lru.prev
  done;
  n

let create _eng ~backend ~capacity ~name:_ =
  if capacity < block_size then invalid_arg "Bcache.create: capacity below one block";
  let rec lru = { owner = new_obj 0L; block = -1; dirty = false; prev = lru; next = lru } in
  {
    backend;
    capacity;
    lru;
    blocks = 0;
    (* lint: bounded — one record per object of the store: the prefetch hint *)
    objs = Objs.create 64;
    (* lint: bounded — one row per object written since its last invalidate *)
    order = Hashtbl.create 16;
    hits = 0;
    misses = 0;
    prefetched = 0;
    inflight = 0;
    inflight_blocks = 0;
    total_dirty = 0;
    waiters = [];
    throttle_waiters = [];
  }

(* A forward stride of up to 8 blocks (64 KB) still reads as a
   sequential stream to the drive — this is how a client alternating
   between mirrors keeps triggering contiguous prefetch whose skipped
   half goes unused. *)
let sequentialish ~last ~block = block > last && block - last <= 8

let read t ~obj:id ~block =
  let o = find_obj t id in
  match Blocks.find o.resident block with
  | n ->
      t.hits <- t.hits + 1;
      promote t n;
      o.last <- block
  | exception Not_found ->
      t.misses <- t.misses + 1;
      let seq = if o.last = no_access then block = 0 else sequentialish ~last:o.last ~block in
      (* Wait for the demand block only; on a sequential stream, stream
         the readahead window behind it asynchronously (FFS-style
         pipelined prefetch, up to 256 KB beyond the current access). *)
      t.backend.demand_read ~obj:id ~block ~count:1 ~sequential:(seq && block <> 0);
      (* the fiber parked: an invalidate may have retired [o] meanwhile *)
      let o = find_obj t id in
      ignore (insert t o block);
      (if seq then
         let run = ref 0 in
         while !run < prefetch_blocks - 1 && not (Blocks.mem o.resident (block + 1 + !run)) do
           incr run
         done;
         if !run > 0 then begin
           t.backend.readahead ~obj:id ~block:(block + 1) ~count:!run;
           for i = 1 to !run do
             ignore (insert t o (block + i))
           done;
           t.prefetched <- t.prefetched + !run
         end);
      o.last <- block

let add_order t o =
  if not o.ordered then begin
    o.ordered <- true;
    Hashtbl.replace t.order o.id o
  end

let mark_dirty t o n =
  add_order t o;
  if not n.dirty then begin
    n.dirty <- true;
    t.total_dirty <- t.total_dirty + 1;
    Blocks.replace o.dirty_blocks n.block n
  end

(* Write back the object's dirty blocks in block order, each contiguous
   run as a single transfer. *)
let flush t o =
  add_order t o;
  let dirty =
    List.sort
      (fun a b -> Int.compare a.block b.block)
      (Blocks.fold (fun _ n acc -> n :: acc) o.dirty_blocks [])
  in
  Blocks.clear o.dirty_blocks;
  let clean n =
    n.dirty <- false;
    t.total_dirty <- t.total_dirty - 1
  in
  let rec loop = function
    | [] -> ()
    | n0 :: rest ->
        clean n0;
        let rec extend prev len = function
          | n :: tl when n.block = prev + 1 ->
              clean n;
              extend n.block (len + 1) tl
          | tl -> (len, tl)
        in
        let len, rest = extend n0.block 1 rest in
        start_write_back t o ~block:n0.block ~count:len;
        loop rest
  in
  loop dirty

let flush_all t =
  List.iter (flush t) (Hashtbl.fold (fun _ o acc -> o :: acc) t.order [])

let write t ~obj:id ~block =
  let o = find_obj t id in
  let n =
    match Blocks.find o.resident block with
    | n ->
        t.hits <- t.hits + 1;
        promote t n;
        n
    | exception Not_found ->
        t.misses <- t.misses + 1;
        insert t o block
  in
  mark_dirty t o n;
  o.last <- block;
  (* background write-behind past the high-water mark *)
  if Blocks.length o.dirty_blocks >= high_water_blocks then flush t o;
  (* Dirty throttle: stall the writer while the backend is far behind;
     re-checked on every write-back completion. Flushing the writer's own
     object here would shred streams into tiny runs (writers park
     mid-request), so when the backend goes idle we flush EVERY object's
     accumulated dirty set — each a contiguous clustered run — and let
     completions pace the writers. *)
  while t.total_dirty + t.inflight_blocks > max_outstanding_blocks do
    if t.inflight = 0 then flush_all t
    else Engine.suspend (fun wake -> t.throttle_waiters <- (fun () -> wake ()) :: t.throttle_waiters)
  done

let wait_idle t =
  while t.inflight > 0 do
    Engine.suspend (fun wake -> t.waiters <- (fun () -> wake ()) :: t.waiters)
  done

(* Commit waits only for the write-backs of ITS object that are already
   booked when it runs — not for other streams' data, and not for writes
   that arrive later (a file can be committed while still being
   written). Write-backs in flight when the object was invalidated still
   count: the record outlives the invalidate until they land. *)
let wait_obj_barrier (o : obj) =
  let target = o.completed + o.inflight in
  while o.completed < target do
    Engine.suspend (fun wake -> o.waiters <- (fun () -> wake ()) :: o.waiters)
  done

let commit t ~obj:id =
  let o = find_obj t id in
  flush t o;
  wait_obj_barrier o;
  t.backend.sync ()

let commit_all t =
  flush_all t;
  wait_idle t;
  t.backend.sync ()

(* Only this object's blocks are visited. *)
let invalidate_object t id =
  match Objs.find t.objs id with
  | exception Not_found -> ()
  | o ->
      Blocks.iter
        (fun _ n ->
          unlink n;
          if n.dirty then t.total_dirty <- t.total_dirty - 1)
        o.resident;
      t.blocks <- t.blocks - Blocks.length o.resident;
      forget t o;
      retire t o

let drop_clean t =
  (* Invalidate the whole cache (e.g. to model a cold mount). Dirty data
     must have been committed first. *)
  t.lru.next <- t.lru;
  t.lru.prev <- t.lru;
  t.blocks <- 0;
  Objs.filter_map_inplace
    (fun _ o ->
      forget t o;
      if idle o then None else Some o)
    t.objs;
  Hashtbl.reset t.order

let hits t = t.hits
let misses t = t.misses
let prefetched_blocks t = t.prefetched
let resident_bytes t = t.blocks * block_size
