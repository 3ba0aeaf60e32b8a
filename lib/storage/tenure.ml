module Engine = Slice_sim.Engine

type t = {
  eng : Engine.t;
  mutable owned : int list; (* sorted, no duplicates *)
  mutable draining : int list; (* a subset of [owned] *)
  loads : (int, int) Hashtbl.t; (* requests admitted, by site *)
  mutable lease_until : float;
  mutable lease_epoch : int;
  mutable drain_bounces : int;
  mutable misdirect_bounces : int;
  mutable fence_bounces : int;
}

let owned t = t.owned
let owns t site = List.mem site t.owned
let own t site = if not (owns t site) then t.owned <- List.merge compare [ site ] t.owned
let draining t site = List.mem site t.draining
let end_drain t site = t.draining <- List.filter (fun s -> s <> site) t.draining

let disown t site =
  t.owned <- List.filter (fun s -> s <> site) t.owned;
  end_drain t site

let begin_drain t site =
  if not (owns t site) then invalid_arg (Printf.sprintf "Tenure.begin_drain: %d not owned" site);
  if not (draining t site) then t.draining <- site :: t.draining

let clear_drains t = t.draining <- []

let create eng ?(sites = []) () =
  let t =
    {
      eng;
      owned = [];
      draining = [];
      loads = Hashtbl.create 8;
      lease_until = infinity;
      lease_epoch = 0;
      drain_bounces = 0;
      misdirect_bounces = 0;
      fence_bounces = 0;
    }
  in
  List.iter (own t) sites;
  t

let load t site = Option.value (Hashtbl.find_opt t.loads site) ~default:0
let reset_load t site = Hashtbl.remove t.loads site
let total_load t = List.fold_left (fun acc s -> acc + load t s) 0 t.owned

let admit t site ~write =
  if write && draining t site then begin
    t.drain_bounces <- t.drain_bounces + 1;
    false
  end
  else if not (owns t site) then begin
    t.misdirect_bounces <- t.misdirect_bounces + 1;
    false
  end
  else begin
    Hashtbl.replace t.loads site (load t site + 1);
    true
  end

let set_lease t ~epoch ~until =
  t.lease_epoch <- epoch;
  t.lease_until <- until

let lease_epoch t = t.lease_epoch
let wedged t = Engine.now t.eng > t.lease_until
let fence_bounce t = t.fence_bounces <- t.fence_bounces + 1
let drain_bounces t = t.drain_bounces
let misdirect_bounces t = t.misdirect_bounces
let fence_bounces t = t.fence_bounces
