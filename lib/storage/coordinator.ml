module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Net = Slice_net.Net
module Rpc = Slice_net.Rpc
module Packet = Slice_net.Packet
module Nfs = Slice_nfs.Nfs
module Codec = Slice_nfs.Codec
module Fh = Slice_nfs.Fh
module Wal = Slice_wal.Wal
module Trace = Slice_trace.Trace

type intent = {
  kind : Ctrl.kind;
  fh : Fh.t;
  participants : int list;
  mutable completed : bool;
  mutable probe : Engine.timer; (* the armed redo probe, cancelled on retire *)
}

let rt_intent = 1
let rt_complete = 2

type t = {
  host : Host.t;
  ctrl_port : int;
  rpc : Rpc.t;
  trace : Trace.t option;
  probe_timeout : float;
  map_sites : int array;
  mutable wal : Wal.t;
  intents : (int64, intent) Hashtbl.t;
  maps : (int64, int array ref) Hashtbl.t; (* fileID -> site per block-map chunk *)
  mutable next_op : int64;
  mutable logged : int;
  mutable completed_count : int;
  mutable redo_count : int;
  mutable up : bool;
  (* Fencing lease (failover): an expired lease wedges the coordinator —
     control messages get Nack, probes/redo stop — so a zombie deposed by
     a takeover cannot drive 2PC against the new incarnation. Defaults
     (infinite lease, epoch 0) keep standalone coordinators unfenced. *)
  mutable lease_until : float;
  mutable lease_epoch : int;
  mutable fence_bounces : int;
}

let wedged t = Engine.now t.host.Host.eng > t.lease_until

let cpu_cost = 25e-6

let log_intent ?(span = Trace.null) t op_id (i : intent) =
  let payload =
    Bytes.to_string
      (Ctrl.encode_msg ~xid:0
         (Ctrl.Intent { op_id; kind = i.kind; fh = i.fh; participants = i.participants }))
  in
  ignore (Wal.append t.wal ~rtype:rt_intent payload);
  Wal.sync ~span t.wal;
  t.logged <- t.logged + 1

let log_complete t op_id =
  (* Completions clear intentions asynchronously — appended but not
     force-synced (the paper amortizes these off the critical path). *)
  let payload = Bytes.to_string (Ctrl.encode_msg ~xid:0 (Ctrl.Complete { op_id })) in
  ignore (Wal.append t.wal ~rtype:rt_complete payload)

(* Idempotent redo: removes re-issue remove; commit-like kinds re-issue
   commit, forcing participants' dirty state stable. *)
let nfs_call_for_redo (i : intent) : Nfs.call =
  match i.kind with
  | Ctrl.K_remove | Ctrl.K_truncate -> Nfs.Remove (i.fh, "")
  | Ctrl.K_commit | Ctrl.K_mirror_write -> Nfs.Commit (i.fh, 0L, 0)

(* Push the call to every participant; true only when all of them acked.
   A participant timing out must not raise out of the join (that would
   abandon the sibling fibers) nor count as done — the caller keeps the
   intent and probes again. *)
let fan_out ?(span = Trace.null) t (call : Nfs.call) sites =
  let ok = ref true in
  Fiber.join_all t.host.Host.eng
    (List.map
       (fun site () ->
         let xid = Rpc.fresh_xid t.rpc in
         let payload = Codec.encode_call ~xid call in
         match Rpc.call t.rpc ~span ~timeout:2.0 ~dst:site ~dport:2049 payload with
         | (_ : bytes) -> ()
         | exception Rpc.Timeout -> ok := false)
       sites);
  !ok

(* Completion retires the intent from the in-memory table — the log
   already carries the completion record, so the table only ever holds
   operations in progress and cannot grow with op count. *)
let retire t op_id (i : intent) =
  i.completed <- true;
  Engine.cancel t.host.Host.eng i.probe;
  t.completed_count <- t.completed_count + 1;
  log_complete t op_id;
  Hashtbl.remove t.intents op_id

(* Retire only when every participant acked the redo; otherwise keep the
   intent and re-arm the probe — a partitioned participant must still see
   its redo once the partition heals. *)
let rec redo t op_id (i : intent) =
  if (not i.completed) && not (wedged t) then begin
    t.redo_count <- t.redo_count + 1;
    if fan_out t (nfs_call_for_redo i) i.participants then retire t op_id i
    else schedule_probe t op_id i
  end

and schedule_probe t op_id (i : intent) =
  i.probe <-
    Engine.timer t.host.Host.eng t.probe_timeout (fun () ->
      if t.up && not (wedged t) then
        match Hashtbl.find_opt t.intents op_id with
        | Some i when not i.completed -> Engine.spawn t.host.Host.eng (fun () -> redo t op_id i)
        | _ -> ())

let fresh_op t =
  t.next_op <- Int64.add t.next_op 1L;
  t.next_op

let sites_for t fh block =
  let n = Array.length t.map_sites in
  if n = 0 then None
  else begin
    let key = fh.Fh.file_id in
    let map =
      match Hashtbl.find_opt t.maps key with
      | Some m -> m
      | None ->
          let m = ref [||] in
          Hashtbl.replace t.maps key m;
          m
    in
    if block >= Array.length !map then begin
      (* Extend the map with the placement policy: rotate the stripe start
         by a hash of the fileID so files spread over different nodes. *)
      let start = Int64.to_int (Int64.rem (Int64.abs key) (Int64.of_int n)) in
      let old = !map in
      let nm = Array.init (block + 1) (fun b ->
          if b < Array.length old then old.(b) else t.map_sites.((start + b) mod n))
      in
      map := nm
    end;
    Some !map.(block)
  end

let handle_msg t (pkt : Packet.t) =
  Engine.spawn t.host.Host.eng (fun () ->
      if t.up then
        match (try Some (Ctrl.decode_msg pkt.payload) with Ctrl.Malformed -> None) with
        | None -> ()
        | Some (xid, msg) ->
            let span =
              Trace.child (Trace.span_of_xid t.trace xid) ~hop:"server"
                ~site:(Host.name t.host) ()
            in
            Host.cpu t.host cpu_cost;
            let reply r =
              Trace.finish span;
              Nfs_endpoint.reply_to t.host pkt (Ctrl.encode_reply ~xid r)
            in
            if wedged t then begin
              (* Fenced: a deposed coordinator must refuse to log new
                 intentions or acknowledge anything — the requester backs
                 off and finds the successor through the routing table. *)
              t.fence_bounces <- t.fence_bounces + 1;
              reply Ctrl.Nack
            end
            else
            (match msg with
            | Ctrl.Intent { op_id; kind; fh; participants } ->
                let i = { kind; fh; participants; completed = false; probe = Engine.no_timer } in
                Hashtbl.replace t.intents op_id i;
                log_intent ~span t op_id i;
                Wal.sync ~span t.wal;
                schedule_probe t op_id i;
                reply Ctrl.Ack
            | Ctrl.Complete { op_id } ->
                (match Hashtbl.find_opt t.intents op_id with
                | Some i when not i.completed -> retire t op_id i
                | _ -> ());
                reply Ctrl.Ack
            | Ctrl.Remove_file { fh; sites } ->
                let op_id = fresh_op t in
                let i = { kind = Ctrl.K_remove; fh; participants = sites; completed = false; probe = Engine.no_timer } in
                Hashtbl.replace t.intents op_id i;
                log_intent ~span t op_id i;
                (* The intent is durable, so ack either way: a participant
                   that missed the remove gets it from the probe/redo path. *)
                if fan_out ~span t (Nfs.Remove (fh, "")) sites then retire t op_id i
                else schedule_probe t op_id i;
                reply Ctrl.Ack
            | Ctrl.Commit_file { fh; sites } ->
                let op_id = fresh_op t in
                let i = { kind = Ctrl.K_commit; fh; participants = sites; completed = false; probe = Engine.no_timer } in
                Hashtbl.replace t.intents op_id i;
                log_intent ~span t op_id i;
                if fan_out ~span t (Nfs.Commit (fh, 0L, 0)) sites then retire t op_id i
                else schedule_probe t op_id i;
                reply Ctrl.Ack
            | Ctrl.Get_map { fh; first_block; count } -> (
                match sites_for t fh (first_block + count - 1) with
                | None -> reply Ctrl.Nack
                | Some _ ->
                    let sites =
                      Array.init count (fun k ->
                          match sites_for t fh (first_block + k) with
                          | Some s -> s
                          | None -> -1)
                    in
                    reply (Ctrl.Map { first_block; sites }))))

let attach host ?(port = 2050) ?(rpc_port = 2052) ?(probe_timeout = 0.5) ?(map_sites = [||])
    ?trace () =
  let wal =
    match host.Host.disk with
    | Some disk -> Wal.create ~eng:host.Host.eng ~disk ~name:"coord.wal" ()
    | None -> Wal.create ~name:"coord.wal" ()
  in
  let t =
    {
      host;
      ctrl_port = port;
      rpc = Rpc.create host.Host.net host.Host.addr ~port:rpc_port;
      trace;
      probe_timeout;
      map_sites;
      wal;
      (* lint: bounded — holds only ops in progress: completion retires the row (WAL keeps history) *)
      intents = Hashtbl.create 64;
      (* lint: bounded — one row per file with a block map; soft state, reset on crash *)
      maps = Hashtbl.create 64;
      next_op = Int64.of_int (host.Host.addr * 1_000_000);
      logged = 0;
      completed_count = 0;
      redo_count = 0;
      up = true;
      lease_until = infinity;
      lease_epoch = 0;
      fence_bounces = 0;
    }
  in
  Nfs_endpoint.serve_raw host ~port ~handler:(handle_msg t);
  t

let addr t = t.host.Host.addr
let port t = t.ctrl_port
let host t = t.host
let is_up t = t.up
let map_sites t = t.map_sites

let log_image t = Wal.image t.wal
(* The stable (synced) intentions log — what shared storage holds after
   this coordinator fails; a standby adopts it to finish 2PC. *)

(* ---- fencing lease (failover) ---- *)

let set_lease t ~epoch ~until =
  t.lease_epoch <- epoch;
  t.lease_until <- until

let lease_epoch t = t.lease_epoch
let fence_bounces t = t.fence_bounces
let is_wedged t = wedged t

let pending_intents t =
  Hashtbl.fold (fun _ i acc -> if i.completed then acc else acc + 1) t.intents 0

let intents_logged t = t.logged
let completions t = t.completed_count
let redos t = t.redo_count
let map_entries t = Hashtbl.length t.maps

(* lint: F1 ok — crash simulation: rebuilding the synced log image models the disk, not a client-visible mutation *)
let crash t =
  t.up <- false;
  (* Volatile state is lost; only the synced log image survives. *)
  let image = Wal.image t.wal in
  Hashtbl.reset t.intents;
  Hashtbl.reset t.maps;
  let wal = match t.host.Host.disk with
    | Some disk -> Wal.create ~eng:t.host.Host.eng ~disk ~name:"coord.wal" ()
    | None -> Wal.create ~name:"coord.wal" ()
  in
  (* Seed the fresh log with the surviving records so recover can scan it. *)
  ignore (Wal.replay image (fun ~lsn:_ ~rtype payload -> ignore (Wal.append wal ~rtype payload)));
  Wal.sync wal;
  t.wal <- wal

let recover t =
  (* Scan the intentions log: rebuild the table, then drive incomplete
     operations to completion ("a failed coordinator recovers by scanning
     its intentions log, completing or aborting operations in progress"). *)
  ignore
    (Wal.replay (Wal.image t.wal) (fun ~lsn:_ ~rtype payload ->
         match rtype with
         | rt when rt = rt_intent -> (
             match Ctrl.decode_msg (Bytes.of_string payload) with
             | _, Ctrl.Intent { op_id; kind; fh; participants } ->
                 Hashtbl.replace t.intents op_id { kind; fh; participants; completed = false; probe = Engine.no_timer }
             | _ -> ()
             | exception Ctrl.Malformed -> ())
         | rt when rt = rt_complete -> (
             match Ctrl.decode_msg (Bytes.of_string payload) with
             | _, Ctrl.Complete { op_id } -> Hashtbl.remove t.intents op_id
             | _ -> ()
             | exception Ctrl.Malformed -> ())
         | _ -> ()));
  t.up <- true;
  let incomplete =
    Hashtbl.fold (fun op_id i acc -> if i.completed then acc else (op_id, i) :: acc) t.intents []
  in
  Engine.spawn t.host.Host.eng (fun () ->
      List.iter (fun (op_id, i) -> redo t op_id i) incomplete)

(* lint: F1 ok — failover takeover: the deposed coordinator is fenced by lease expiry before its log is grafted here *)
let adopt_log t ~log =
  (* Takeover: graft a failed coordinator's stable intentions log into
     this (typically fresh) coordinator, then run the normal recovery
     scan — incomplete operations are re-driven from here. Journaling the
     adopted records locally first makes the adoption itself crash-safe:
     a standby that dies mid-adoption leaves a log a second standby can
     adopt again, and a re-adoption of the same image converges (replay
     rebuilds the same intent rows). *)
  ignore (Wal.replay log (fun ~lsn:_ ~rtype payload -> ignore (Wal.append t.wal ~rtype payload)));
  Wal.sync t.wal;
  recover t
