(* Direct drive of one installed µproxy: a SPECsfs-shaped stream of
   encoded calls and replies pushed through the client's egress and
   ingress filters with no servers behind them, so the host cost per
   packet is the proxy's own (cursor peeks, pending pool, rewrite,
   checksum repair, reply patching). *)

module Engine = Slice_sim.Engine
module Net = Slice_net.Net
module Packet = Slice_net.Packet
module Host = Slice_storage.Host
module Codec = Slice_nfs.Codec
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Proxy = Slice.Proxy

let fh i =
  {
    Fh.file_id = Int64.of_int (5000 + i);
    gen = 1;
    ftype = Fh.Reg;
    mirrored = false;
    attr_site = 0;
    cap = 0L;
  }

(* Lookup, getattr, access, read and write in equal parts. *)
let exchange i =
  let f = fh (i mod 16) in
  let attr = Nfs.default_attr ~ftype:Fh.Reg ~fileid:f.Fh.file_id ~now:0.0 in
  match i mod 5 with
  | 0 -> (Nfs.Lookup (Fh.root, Printf.sprintf "n%d" (i mod 16)), Ok (Nfs.RLookup (f, attr)))
  | 1 -> (Nfs.Getattr f, Ok (Nfs.RGetattr attr))
  | 2 -> (Nfs.Access (f, 1), Ok (Nfs.RAccess (1, attr)))
  | 3 ->
      ( Nfs.Read (f, Int64.of_int (i mod 64 * 8192), 8192),
        Ok (Nfs.RRead (Nfs.Synthetic 8192, false, attr)) )
  | _ ->
      ( Nfs.Write (f, Int64.of_int (i mod 64 * 8192), Nfs.Unstable, Nfs.Synthetic 4096),
        Ok (Nfs.RWrite (4096, Nfs.Unstable, attr)) )

let batch = 128
let rounds = 24

(* Host nanoseconds and minor words per packet over [rounds] batches of
   [batch] calls and their replies, after one warm-up batch. The metadata
   fast path and the expiry sweep are off: the first would answer from
   cache without forwarding, the second would run idle timers. *)
let measure () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let client = Host.create net ~name:"client" () in
  let dir = Host.create net ~name:"dir" () in
  let s0 = Host.create net ~name:"s0" () and s1 = Host.create net ~name:"s1" () in
  let vaddr = Net.add_node net ~name:"virtual" in
  let params =
    {
      Slice.Params.default with
      threshold = 0;
      meta_cache_enabled = false;
      pending_sweep_interval = 0.0;
    }
  in
  let proxy =
    Proxy.install client ~params
      {
        Proxy.virtual_addr = vaddr;
        dir_table = Slice.Table.create [| dir.Host.addr |];
        smallfile_table = None;
        storage = Some (Slice.Table.create [| s0.Host.addr; s1.Host.addr |]);
        coordinator = (fun () -> None);
      }
  in
  let n = batch * (rounds + 1) in
  let calls =
    Array.init n (fun i ->
        Packet.make ~src:client.Host.addr ~dst:vaddr ~sport:1000 ~dport:2049
          (Codec.encode_call ~xid:(0x200000 + i) (fst (exchange i))))
  in
  let replies =
    Array.init n (fun i ->
        Packet.make ~src:dir.Host.addr ~dst:client.Host.addr ~sport:2049 ~dport:1000
          (Codec.encode_reply ~xid:(0x200000 + i) (snd (exchange i))))
  in
  let push pkts b =
    Engine.spawn eng (fun () ->
        for i = b * batch to ((b + 1) * batch) - 1 do
          Net.send net pkts.(i)
        done);
    Engine.run eng
  in
  let round b =
    push calls b;
    push replies b
  in
  round 0;
  let seen () = Proxy.packets_intercepted proxy + Proxy.replies_processed proxy in
  let p0 = seen () in
  let w0 = Gc.minor_words () in
  let t0 = Sys.time () in
  for b = 1 to rounds do
    round b
  done;
  let dt = Sys.time () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  let packets = float_of_int (seen () - p0) in
  (1e9 *. Ledger.ratio dt packets, Ledger.ratio dw packets)
