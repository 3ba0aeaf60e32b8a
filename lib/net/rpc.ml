module Engine = Slice_sim.Engine

module Trace = Slice_trace.Trace
module Xid_index = Slice_util.Xid_index

exception Timeout

type outcome = Reply of bytes | Timed_out

type ep = { mutable ep_calls : int; mutable ep_retransmits : int; mutable ep_timeouts : int }

type endpoint_stats = { calls : int; retransmits : int; timeouts : int }

(* Fraction of the current timeout added as uniform jitter, so a fleet of
   endpoints that lost packets together does not retransmit in lockstep. *)
let jitter_frac = 0.1

(* One outstanding call. Slots are pooled and found by xid through the
   shared index: a call borrows one, and the reply or the last timeout
   returns it. [fire] — the retransmit timer's thunk — is built once per
   slot, so a call allocates no table entry, pending record or timer
   closure, and the reply cancels the live timer instead of leaving it
   queued until its deadline. *)
type slot = {
  mutable xid : int;
  mutable wake : outcome -> unit;
  mutable attempt : int; (* retransmissions so far *)
  mutable cur : float; (* the current timeout, before jitter *)
  mutable timer : Engine.timer;
  mutable payload : bytes;
  mutable dst : Packet.addr;
  mutable dport : int;
  mutable extra_size : int;
  mutable retries : int;
  mutable backoff : float;
  mutable cap : float;
  mutable ep : ep;
  mutable next_free : int;
  fire : unit -> unit;
}

type t = {
  net : Net.t;
  eng : Engine.t;
  addr : Packet.addr;
  port : int;
  prng : Slice_util.Prng.t;
  mutable slots : slot array;
  mutable free_slot : int;
  index : Xid_index.t; (* xid -> slot *)
  endpoints : (Packet.addr, ep) Hashtbl.t;
  mutable retransmits : int;
  mutable timeouts : int;
  mutable completed : int;
}

let no_wake (_ : outcome) = ()
let no_ep = { ep_calls = 0; ep_retransmits = 0; ep_timeouts = 0 }

(* Unbind and pool a finished call's slot, dropping its waker and payload. *)
let release t i =
  let s = t.slots.(i) in
  Xid_index.remove t.index s.xid;
  s.wake <- no_wake;
  s.payload <- Bytes.empty;
  s.timer <- Engine.no_timer;
  s.next_free <- t.free_slot;
  t.free_slot <- i

(* Fresh packet per attempt: an interposed filter may have rewritten the
   previous copy in place. *)
let transmit t s =
  let pkt =
    Packet.make ~src:t.addr ~dst:s.dst ~sport:t.port ~dport:s.dport ~extra_size:s.extra_size
      (Bytes.copy s.payload)
  in
  let xid = s.xid in
  Net.send t.net pkt;
  let wait = s.cur *. (1.0 +. (jitter_frac *. Slice_util.Prng.float t.prng 1.0)) in
  (* a filter that answers inside [send] has already released the slot *)
  if s.xid = xid && s.wake != no_wake then s.timer <- Engine.timer t.eng wait s.fire

let on_timer t i =
  let s = t.slots.(i) in
  if s.attempt < s.retries then begin
    s.attempt <- s.attempt + 1;
    t.retransmits <- t.retransmits + 1;
    s.ep.ep_retransmits <- s.ep.ep_retransmits + 1;
    let next = s.cur *. s.backoff in
    s.cur <- (if next > s.cap then s.cap else next);
    transmit t s
  end
  else begin
    let wake = s.wake in
    t.timeouts <- t.timeouts + 1;
    s.ep.ep_timeouts <- s.ep.ep_timeouts + 1;
    release t i;
    wake Timed_out
  end

let new_slot t i =
  {
    xid = 0;
    wake = no_wake;
    attempt = 0;
    cur = 0.0;
    timer = Engine.no_timer;
    payload = Bytes.empty;
    dst = 0;
    dport = 0;
    extra_size = 0;
    retries = 0;
    backoff = 0.0;
    cap = 0.0;
    ep = no_ep;
    next_free = -1;
    fire = (fun () -> on_timer t i);
  }

(* Pool exhausted: double it, and the index with it. *)
let grow t =
  let n = Array.length t.slots in
  let n' = if n = 0 then 16 else 2 * n in
  t.slots <- Array.init n' (fun i -> if i < n then t.slots.(i) else new_slot t i);
  for i = n' - 1 downto n do
    t.slots.(i).next_free <- t.free_slot;
    t.free_slot <- i
  done;
  while Xid_index.capacity t.index < n' do
    Xid_index.grow t.index
  done

let acquire t =
  if t.free_slot < 0 then grow t;
  let i = t.free_slot in
  t.free_slot <- t.slots.(i).next_free;
  i

let on_packet t (pkt : Packet.t) =
  if Bytes.length pkt.payload >= 4 then begin
    let xid = Int32.to_int (Bytes.get_int32_be pkt.payload 0) land 0xFFFFFFFF in
    let i = Xid_index.find t.index xid in
    (* unbound: a duplicate reply after a retransmission — drop it *)
    if i >= 0 then begin
      let s = t.slots.(i) in
      let wake = s.wake in
      Engine.cancel t.eng s.timer;
      release t i;
      t.completed <- t.completed + 1;
      wake (Reply pkt.payload)
    end
  end

let create net addr ~port =
  let t =
    {
      net;
      eng = Net.engine net;
      addr;
      port;
      (* jitter stream seeded from the endpoint identity: deterministic
         across runs, decorrelated across endpoints *)
      prng = Slice_util.Prng.create ((addr * 65599) + port + 17);
      slots = [||];
      free_slot = -1;
      index = Xid_index.create 16;
      (* lint: bounded — one row per (addr, port) peer in the ensemble *)
      endpoints = Hashtbl.create 8;
      retransmits = 0;
      timeouts = 0;
      completed = 0;
    }
  in
  Net.listen net addr ~port (on_packet t);
  t

let ep_of t dst =
  match Hashtbl.find_opt t.endpoints dst with
  | Some ep -> ep
  | None ->
      let ep = { ep_calls = 0; ep_retransmits = 0; ep_timeouts = 0 } in
      Hashtbl.replace t.endpoints dst ep;
      ep

let addr t = t.addr

(* XIDs come from the network's private counter so no two endpoints in a
   simulation ever collide (an interposed filter can key its soft state
   on the XID alone) and the stream stays deterministic even when
   several simulations run in one process. *)
let fresh_xid t = Net.fresh_xid t.net

let call t ?(timeout = 0.1) ?(retries = 8) ?(backoff = 2.0) ?(max_timeout = 2.0)
    ?(span = Trace.null) ~dst ~dport ?(extra_size = 0) payload =
  let xid = Int32.to_int (Bytes.get_int32_be payload 0) land 0xFFFFFFFF in
  if Xid_index.find t.index xid >= 0 then invalid_arg "Rpc.call: xid already outstanding";
  let cap = if timeout > max_timeout then timeout else max_timeout in
  let ep = ep_of t dst in
  ep.ep_calls <- ep.ep_calls + 1;
  let sp = Trace.child span ~hop:"rpc" ~site:(Net.node_name t.net t.addr) () in
  Trace.bind_xid sp xid;
  let outcome =
    Engine.suspend (fun wake ->
        let i = acquire t in
        let s = t.slots.(i) in
        Xid_index.add t.index xid i;
        s.xid <- xid;
        s.wake <- wake;
        s.attempt <- 0;
        s.cur <- timeout;
        s.payload <- payload;
        s.dst <- dst;
        s.dport <- dport;
        s.extra_size <- extra_size;
        s.retries <- retries;
        s.backoff <- backoff;
        s.cap <- cap;
        s.ep <- ep;
        transmit t s)
  in
  Trace.unbind_xid sp xid;
  match outcome with
  | Reply b ->
      Trace.finish sp;
      b
  | Timed_out ->
      Trace.finish ~outcome:"timeout" sp;
      raise Timeout

let retransmissions t = t.retransmits
let timeouts t = t.timeouts
let calls_completed t = t.completed
let pending_calls t = Xid_index.length t.index

let endpoint_stats t dst =
  match Hashtbl.find_opt t.endpoints dst with
  | None -> { calls = 0; retransmits = 0; timeouts = 0 }
  | Some ep ->
      { calls = ep.ep_calls; retransmits = ep.ep_retransmits; timeouts = ep.ep_timeouts }
