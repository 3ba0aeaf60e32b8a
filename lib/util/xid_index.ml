(* Open addressing over two parallel int arrays: [keys] holds the xid
   (-1 = empty cell) and [vals] the slot bound to it. The table is sized
   at twice the capacity, so load stays at or under 1/2 and a linear
   probe always ends on an empty cell. Homes come from a Fibonacci
   multiply; deletion back-shifts the rest of the probe run into the hole
   instead of leaving a tombstone, so lookups never slow down with
   churn. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable mask : int;
  mutable count : int;
}

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (p * 2)

let create n =
  let size = pow2_at_least (2 * max 1 n) 2 in
  { keys = Array.make size (-1); vals = Array.make size 0; mask = size - 1; count = 0 }

let capacity t = (t.mask + 1) / 2
let length t = t.count
let[@hot] home t xid = xid * 0x9E3779B1 land t.mask

let[@hot] rec probe t xid i =
  let k = t.keys.(i) in
  if k = xid || k < 0 then i else probe t xid ((i + 1) land t.mask)

let[@hot] find t xid =
  let i = probe t xid (home t xid) in
  if t.keys.(i) < 0 then -1 else t.vals.(i)

let[@hot] add t xid v =
  if xid < 0 then invalid_arg "Xid_index.add: negative xid";
  if t.count >= capacity t then invalid_arg "Xid_index.add: full";
  let i = probe t xid (home t xid) in
  if t.keys.(i) >= 0 then invalid_arg "Xid_index.add: xid already bound";
  t.keys.(i) <- xid;
  t.vals.(i) <- v;
  t.count <- t.count + 1

(* Refill the hole at [i] from the probe run after [j]. The entry at [j]
   may move into the hole iff its home is cyclically outside (i, j];
   otherwise the move would cut it off from its own home. *)
let[@hot] rec shift t i j =
  let j = (j + 1) land t.mask in
  let k = t.keys.(j) in
  if k >= 0 then begin
    let h = home t k in
    let movable = if j > i then h <= i || h > j else h <= i && h > j in
    if movable then begin
      t.keys.(i) <- k;
      t.vals.(i) <- t.vals.(j);
      t.keys.(j) <- -1;
      shift t j j
    end
    else shift t i j
  end

let[@hot] remove t xid =
  let i = probe t xid (home t xid) in
  if t.keys.(i) >= 0 then begin
    t.keys.(i) <- -1;
    t.count <- t.count - 1;
    shift t i i
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  t.count <- 0

let grow t =
  let keys = t.keys and vals = t.vals in
  let size = 2 * Array.length keys in
  t.keys <- Array.make size (-1);
  t.vals <- Array.make size 0;
  t.mask <- size - 1;
  t.count <- 0;
  Array.iteri (fun i k -> if k >= 0 then add t k vals.(i)) keys
