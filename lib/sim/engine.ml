(* The event queue is the innermost loop of the whole simulator, so it is
   built for zero steady-state allocation: event cells are mutable
   records recycled through an intrusive freelist (a popped cell goes
   straight back to the pool, its thunk cleared so the closure can be
   collected), and the binary heap is inlined over those cells with the
   (time, seq) ordering compared directly — no comparator closure, no
   option-returning peek. Every cell records its heap position, which the
   sifts keep current, so a timer is cancelled by taking its cell out of
   the heap at that position: an answered call's retransmit timer leaves
   the queue at once instead of waiting, dead, for its deadline. [run]
   additionally batches dispatch by timestamp: the clock is written once
   per distinct instant and every event carrying it drains in one inner
   loop, preserving exact (time, seq) order (same-instant events
   scheduled during the batch get larger seqs and are picked up by the
   same inner loop). *)

let nop () = ()

type event = {
  mutable time : float;
  mutable seq : int;
  mutable fn : unit -> unit;
  mutable pos : int; (* index in the heap; -1 while pooled *)
  id : int; (* index in [cells], the cell part of a timer handle *)
  mutable next_free : event;
}

(* Cyclic sentinel: terminates the freelist without an option. *)
let rec nil = { time = 0.0; seq = 0; fn = nop; pos = -1; id = -1; next_free = nil }

type t = {
  mutable clock : float;
  mutable seq : int;
  mutable data : event array; (* the heap: [0, size) *)
  mutable size : int;
  mutable cells : event array; (* every cell ever made, by id *)
  mutable ncells : int;
  mutable free : event;
}

let create () =
  { clock = 0.0; seq = 0; data = [||]; size = 0; cells = [||]; ncells = 0; free = nil }

let now t = t.clock

(* A timer handle packs the cell id into the low [id_bits] and the
   event's seq above them; the seq is the generation stamp that tells a
   live event from a later use of the same cell. The handle keeps the
   seq's low 63 - 24 = 39 bits, so a stale handle could only match again
   after 2^39 further events; the id part caps the pool at 2^24 - 1
   cells, i.e. that many simultaneously queued events. *)
type timer = int

let id_bits = 24
let id_mask = (1 lsl id_bits) - 1
let no_timer = -1

(* Earlier event first: primary key time, tie-break by scheduling order. *)
let[@hot] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let[@hot] place t ev i =
  t.data.(i) <- ev;
  ev.pos <- i

(* Hole-based sifts: [ev] travels from hole [i], each cell it passes
   moves one level the other way and records its new position. *)
let[@hot] rec sift_up t ev i =
  if i = 0 then place t ev 0
  else begin
    let parent = (i - 1) / 2 in
    let pe = t.data.(parent) in
    if before ev pe then begin
      place t pe i;
      sift_up t ev parent
    end
    else place t ev i
  end

let[@hot] rec sift_down t ev i =
  let l = (2 * i) + 1 in
  if l >= t.size then place t ev i
  else begin
    let r = l + 1 in
    let c = if r < t.size && before t.data.(r) t.data.(l) then r else l in
    let ce = t.data.(c) in
    if before ce ev then begin
      place t ce i;
      sift_down t ev c
    end
    else place t ev i
  end

(* Callers guarantee [t.size > 0]. Stale array slots keep pool cells
   reachable — intended: the cells are recycled, never collected. *)
let[@hot] pop_min t =
  let top = t.data.(0) in
  top.pos <- -1;
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t t.data.(t.size) 0;
  top

(* Return a cell to the pool; clearing the thunk drops the only reference
   the engine holds to the caller's closure. *)
let[@hot] release t ev =
  ev.fn <- nop;
  ev.next_free <- t.free;
  t.free <- ev

(* Pool miss: make one more cell. The heap array grows with the cell
   count, so a heap insert never needs to grow it. *)
let add_cell t =
  let id = t.ncells in
  (* [id_mask] itself is never an id, so [no_timer] resolves to no cell *)
  if id >= id_mask then failwith "Engine: too many pending events";
  if id = Array.length t.cells then begin
    let cap = if id = 0 then 256 else 2 * id in
    let grow a =
      let b = Array.make cap nil in
      Array.blit a 0 b 0 id;
      b
    in
    t.cells <- grow t.cells;
    t.data <- grow t.data
  end;
  let ev = { time = 0.0; seq = 0; fn = nop; pos = -1; id; next_free = t.free } in
  t.cells.(id) <- ev;
  t.ncells <- id + 1;
  t.free <- ev

(* The allocation-free half of scheduling: take the pooled cell [add_cell]
   guaranteed and sift it in. *)
let[@hot] arm t time fn =
  let ev = t.free in
  t.free <- ev.next_free;
  t.seq <- t.seq + 1;
  ev.time <- time;
  ev.seq <- t.seq;
  ev.fn <- fn;
  t.size <- t.size + 1;
  sift_up t ev (t.size - 1);
  (ev.seq lsl id_bits) lor ev.id

let timer_at t time fn =
  if t.free == nil then add_cell t;
  arm t (if time < t.clock then t.clock else time) fn

let timer t delay fn = timer_at t (t.clock +. if delay < 0.0 then 0.0 else delay) fn
let schedule_at t time fn = ignore (timer_at t time fn)
let schedule t delay fn = ignore (timer t delay fn)

(* Take a live cell out of the heap: the last cell fills the hole and
   sifts whichever way restores the order there. *)
let[@hot] remove t ev =
  let i = ev.pos in
  ev.pos <- -1;
  t.size <- t.size - 1;
  if i < t.size then begin
    let last = t.data.(t.size) in
    if i > 0 && before last t.data.((i - 1) / 2) then sift_up t last i
    else sift_down t last i
  end;
  release t ev

let[@hot] cancel t h =
  let id = h land id_mask in
  if id < t.ncells then begin
    let ev = t.cells.(id) in
    if ev.pos >= 0 && (ev.seq lsl id_bits) lor id = h then remove t ev
  end

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let suspend register = Effect.perform (Suspend register)

let handler =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let fired = ref false in
                let waker v =
                  if not !fired then begin
                    fired := true;
                    continue k v
                  end
                in
                register waker)
        | _ -> None);
  }

let spawn t fn = schedule t 0.0 (fun () -> Effect.Deep.match_with fn () handler)

let sleep t d =
  if d > 0.0 then suspend (fun waker -> schedule t d (fun () -> waker ()))

let sleep_until t time =
  if time > t.clock then suspend (fun waker -> schedule_at t time (fun () -> waker ()))

(* Not a lint root: the indirect dispatch of the event thunk cannot be
   typed allocation-free statically (the closure was charged where it was
   created), so [step] sits just outside the [@hot] region — the pop /
   sift / release machinery it drives is rooted and zero, and the
   steady-state Gc probes keep the whole loop honest at runtime. *)
let step t =
  if t.size = 0 then false
  else begin
    let ev = pop_min t in
    t.clock <- ev.time;
    let f = ev.fn in
    release t ev;
    f ();
    true
  end

let run ?until t =
  let limit = match until with None -> Float.infinity | Some l -> l in
  while t.size > 0 && t.data.(0).time <= limit do
    (* Batch: one clock write per distinct timestamp, then drain it. *)
    let bt = t.data.(0).time in
    t.clock <- bt;
    while t.size > 0 && t.data.(0).time = bt do
      let ev = pop_min t in
      let f = ev.fn in
      release t ev;
      f ()
    done
  done;
  match until with
  | Some limit when limit > t.clock -> t.clock <- limit
  | _ -> ()

let pending t = t.size
