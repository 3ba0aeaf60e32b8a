(* The event queue is the innermost loop of the whole simulator, so it is
   built for zero steady-state allocation and for sifts over flat arrays
   (DESIGN.md §15).

   The heap keeps its keys in heap order in three parallel arrays: event
   times in a [Float.Array], scheduling seqs and cell ids in int arrays,
   so a sift compares unboxed floats in place and moves ints, paying no
   pointer chase and no write barrier. It is 1-based: slot 0 holds the
   key being sifted, which the hole-based sifts re-read there rather
   than carry a float through a call, which would box it. Cells are
   pooled by id and hold only what dispatch needs: the thunk, a sleeping
   fiber's continuation, and the event time as the boxed float it came
   in as, which [run] shares as the clock instead of boxing the key
   again. Each cell's heap slot is recorded, so a timer is cancelled by
   taking it out at that slot. [run] writes the clock once per distinct
   instant and drains every event carrying it in one inner loop, in
   exact (time, seq) order.

   Sleeping takes no closure: [sleep] leaves the wake-up time in the
   engine and performs one constant effect, and the engine's handler,
   built once with its [Some] preallocated, puts the continuation
   straight into a pooled cell. Only [suspend], whose caller holds the
   waker, still allocates one per suspension. *)

open Effect.Deep

let nop () = ()

(* Parks a fiber that is never resumed, to obtain a continuation value
   that stands for "no sleeper" in every cell that holds a plain thunk. *)
type _ Effect.t += Park : unit Effect.t

let no_k : (unit, unit) continuation =
  let parked : (unit, unit) continuation option ref = ref None in
  match_with Effect.perform Park
    {
      retc = nop;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Park -> Some (fun (k : (a, unit) continuation) -> parked := Some k)
          | _ -> None);
    };
  match !parked with Some k -> k | None -> assert false

type cell = {
  mutable fn : unit -> unit;
  mutable k : (unit, unit) continuation; (* a sleeping fiber, else [no_k] *)
  mutable at : float; (* the event time, boxed: the clock write shares it *)
}

type t = {
  mutable clock : float;
  mutable seq : int;
  (* the heap, keys in heap order over [1, size]; slot 0 is scratch *)
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable ids : int array;
  mutable size : int;
  (* the cells, by id *)
  mutable cells : cell array;
  mutable pos : int array; (* heap slot of each cell; 0 while pooled *)
  mutable free : int array; (* stack of pooled ids over [0, nfree) *)
  mutable nfree : int;
  mutable wake_at : float; (* the wake-up time of the fiber now sleeping *)
  mutable handler : (unit, unit) handler;
}

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

let now t = t.clock

(* Key [a] before key [b]: primary key time, tie-break by scheduling
   order (seqs are unique, so no two keys are equal). *)
let[@hot] [@inline] less t a b =
  let ta = Float.Array.unsafe_get t.times a and tb = Float.Array.unsafe_get t.times b in
  ta < tb || (ta = tb && Array.unsafe_get t.seqs a < Array.unsafe_get t.seqs b)

(* Copy the key in slot [j] to slot [i]; [move] also records the cell's
   new position, which a copy into the scratch slot does not need. *)
let[@hot] [@inline] copy t j i =
  Float.Array.unsafe_set t.times i (Float.Array.unsafe_get t.times j);
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.ids i (Array.unsafe_get t.ids j)

let[@hot] [@inline] move t j i =
  copy t j i;
  Array.unsafe_set t.pos (Array.unsafe_get t.ids i) i

(* Hole-based sifts of the scratch key: each key it passes moves one
   level the other way into hole [i], and the scratch key lands in the
   last hole. *)
let[@hot] rec sift_up t i =
  let p = i / 2 in
  if p >= 1 && less t 0 p then begin
    move t p i;
    sift_up t p
  end
  else move t 0 i

let[@hot] rec sift_down t i =
  let l = 2 * i in
  if l > t.size then move t 0 i
  else begin
    let c = if l < t.size && less t (l + 1) l then l + 1 else l in
    if less t c 0 then begin
      move t c i;
      sift_down t c
    end
    else move t 0 i
  end

(* Callers guarantee [t.size > 0]. The last key fills the root's hole. *)
let[@hot] [@inline] pop_min t =
  let id = Array.unsafe_get t.ids 1 in
  let n = t.size in
  t.size <- n - 1;
  if n > 1 then begin
    copy t n 0;
    sift_down t 1
  end;
  id

(* Put id back on the pool stack. Its cell must already be cleared:
   dropping the thunk or continuation drops the only reference the engine
   holds to the caller's closure or fiber. *)
let[@hot] [@inline] free t id =
  t.pos.(id) <- 0;
  t.free.(t.nfree) <- id;
  t.nfree <- t.nfree + 1

(* Pool empty: double it. The new ids go on the stack smallest on top,
   and the heap arrays grow with the pool, so a heap insert never needs
   to grow them. *)
let grow t =
  let n = Array.length t.cells in
  (* [id_mask] itself is never an id, so [no_timer] resolves to no cell *)
  if n >= id_mask then failwith "Engine: too many pending events";
  let cap = min id_mask (max 256 (2 * n)) in
  let extend a len fill =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.cells <-
    Array.init cap (fun i -> if i < n then t.cells.(i) else { fn = nop; k = no_k; at = 0.0 });
  t.pos <- extend t.pos cap 0;
  t.free <- Array.init cap (fun j -> cap - 1 - j);
  t.nfree <- cap - n;
  let times = Float.Array.make (cap + 1) 0.0 in
  Float.Array.blit t.times 0 times 0 (Float.Array.length t.times);
  t.times <- times;
  t.seqs <- extend t.seqs (cap + 1) 0;
  t.ids <- extend t.ids (cap + 1) 0

(* Take a pooled id; the caller ran [grow] on an empty pool. *)
let[@hot] [@inline] take t =
  let n = t.nfree - 1 in
  t.nfree <- n;
  t.free.(n)

(* The allocation-free half of scheduling: key cell [id] at [time] and
   sift it in from the scratch slot. *)
let[@hot] arm t time id =
  t.seq <- t.seq + 1;
  t.cells.(id).at <- time;
  Float.Array.unsafe_set t.times 0 time;
  Array.unsafe_set t.seqs 0 t.seq;
  Array.unsafe_set t.ids 0 id;
  t.size <- t.size + 1;
  sift_up t t.size;
  (t.seq lsl id_bits) lor id

(* A NaN key would compare false both ways, sit at the top of the heap
   and stop [run] with events still queued, so it is refused here;
   infinity is a legal time. *)
let timer_at t time fn =
  if Float.is_nan time then invalid_arg "Engine: NaN event time";
  if t.nfree = 0 then grow t;
  let id = take t in
  t.cells.(id).fn <- fn;
  arm t (if time < t.clock then t.clock else time) id

let timer t delay fn = timer_at t (t.clock +. if delay < 0.0 then 0.0 else delay) fn
let schedule_at t time fn = ignore (timer_at t time fn)
let schedule t delay fn = ignore (timer t delay fn)

(* Take the live timer in slot [i] out of the heap: the last key fills
   the hole and sifts whichever way restores the order there. Only
   timers have handles, so the cell holds a thunk and no sleeper. *)
let[@hot] remove t id i =
  let n = t.size in
  t.size <- n - 1;
  if i < n then begin
    copy t n 0;
    if i > 1 && less t 0 (i / 2) then sift_up t i else sift_down t i
  end;
  t.cells.(id).fn <- nop;
  free t id

let[@hot] cancel t h =
  let id = h land id_mask in
  if id < Array.length t.pos then begin
    let i = t.pos.(id) in
    if i > 0 && (t.seqs.(i) lsl id_bits) lor id = h then remove t id i
  end

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t | Sleep : unit Effect.t

let suspend register = Effect.perform (Suspend register)

(* The sleeping fiber's wake-up: its continuation goes into a pooled
   cell keyed at [wake_at], drawing its seq exactly where the sleep's
   scheduling call would. *)
let wake_later t k =
  if t.nfree = 0 then grow t;
  let id = take t in
  t.cells.(id).k <- k;
  ignore (arm t t.wake_at id)

let make_handler t =
  let sleep = Some (wake_later t) in
  {
    retc = nop;
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
        match eff with
        | Sleep -> sleep
        | Suspend register ->
            Some
              (fun k ->
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

let create () =
  let t =
    {
      clock = 0.0;
      seq = 0;
      times = Float.Array.make 1 0.0;
      seqs = [| 0 |];
      ids = [| 0 |];
      size = 0;
      cells = [||];
      pos = [||];
      free = [||];
      nfree = 0;
      wake_at = 0.0;
      handler = { retc = nop; exnc = raise; effc = (fun _ -> None) };
    }
  in
  t.handler <- make_handler t;
  t

let spawn t fn = schedule t 0.0 (fun () -> match_with fn () t.handler)

(* A fiber sleeps on the engine that spawned it: the wake-up time is
   left where that engine's handler reads it. *)
let sleep t d =
  if d > 0.0 then begin
    t.wake_at <- t.clock +. d;
    Effect.perform Sleep
  end

let sleep_until t time =
  if time > t.clock then begin
    t.wake_at <- time;
    Effect.perform Sleep
  end

(* Pop the earliest event and run it: a thunk, or a sleeping fiber's
   continuation. Not a lint root: the indirect dispatch cannot be typed
   allocation-free statically (the closure was charged where it was
   created), so [fire], [step] and [run] sit just outside the [@hot]
   region — the pop / sift / free machinery they drive is rooted and
   zero, and the steady-state Gc probes keep the whole loop honest at
   runtime. *)
let[@inline] fire t =
  let id = pop_min t in
  let c = t.cells.(id) in
  let k = c.k in
  (* clear only the field this event set: each store is a write barrier *)
  if k == no_k then begin
    let f = c.fn in
    c.fn <- nop;
    free t id;
    f ()
  end
  else begin
    c.k <- no_k;
    free t id;
    continue k ()
  end

let step t =
  if t.size = 0 then false
  else begin
    t.clock <- t.cells.(t.ids.(1)).at;
    fire t;
    true
  end

let run ?until t =
  let limit = match until with None -> Float.infinity | Some l -> l in
  while t.size > 0 && Float.Array.unsafe_get t.times 1 <= limit do
    (* Batch: one clock write per distinct timestamp, then drain it. *)
    let bt = t.cells.(t.ids.(1)).at in
    t.clock <- bt;
    while t.size > 0 && Float.Array.unsafe_get t.times 1 = bt do
      fire t
    done
  done;
  match until with
  | Some limit when limit > t.clock -> t.clock <- limit
  | _ -> ()

let pending t = t.size
