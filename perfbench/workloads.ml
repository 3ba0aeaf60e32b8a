(* The benchmark's three workloads and the measured window around them.

   Each workload builds an ensemble and its clients, sets up its file set
   or trees in simulated time, then drives load through [Client] while
   this module schedules its own engine events at [t_measure] and
   [t_end]. Host CPU time, minor words and every layer counter are read
   at those two edges only, so building the ensemble and the file set
   stays out of every per-op number. *)

module Engine = Slice_sim.Engine
module Fiber = Slice_sim.Fiber
module Ensemble = Slice.Ensemble
module Proxy = Slice.Proxy
module Params = Slice.Params
module Client = Slice_workload.Client
module Stormgen = Slice_workload.Stormgen
module Zipf = Slice_workload.Zipf
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Prng = Slice_util.Prng
module Stats = Slice_util.Stats
module Json = Slice_util.Json
module Metrics = Slice_util.Metrics
module Net = Slice_net.Net
module Obsd = Slice_storage.Obsd
module Host = Slice_storage.Host
module Coordinator = Slice_storage.Coordinator
module Disk = Slice_disk.Disk
module Dirserver = Slice_dir.Dirserver
module Smallfile = Slice_smallfile.Smallfile
module Tenant = Slice_qos.Tenant
module Trace = Slice_trace.Trace

let chunk = 32768

(* ---- the measured window ---- *)

type tally = {
  mutable attempted : int;  (** ops due inside the window *)
  mutable failed : int;  (** of those: NFS errors, RPC timeouts, shed arrivals *)
  mutable completed : int;  (** ops that completed inside the window *)
  mutable bytes : int;  (** payload bytes of the completed ops *)
  lat : Ledger.samples;  (** seconds from due to done, for timed ops due inside *)
}

type window = { eng : Engine.t; t_measure : float; t_end : float; tally : tally }

(* Account one finished op. [due] is when the op was due to start: its
   arrival time in an open loop, its issue time in a closed one. *)
let note w ?(timed = true) ~due ~bytes ok =
  let t = w.tally and fin = Engine.now w.eng in
  if due >= w.t_measure && due < w.t_end then begin
    t.attempted <- t.attempted + 1;
    if not ok then t.failed <- t.failed + 1;
    if timed then Ledger.add t.lat (fin -. due)
  end;
  if ok && fin >= w.t_measure && fin < w.t_end then begin
    t.completed <- t.completed + 1;
    t.bytes <- t.bytes + bytes
  end

(* Run one op; an RPC timeout or a protocol mismatch fails the op instead
   of aborting the simulation. *)
let attempt f =
  try f () with Slice_net.Rpc.Timeout | Client.Unexpected_reply _ -> (false, 0)

let timed_op w ?timed f =
  let due = Engine.now w.eng in
  let ok, bytes = attempt f in
  note w ?timed ~due ~bytes ok

(* Poisson arrivals at [rate]/s from [start] until [t_end], without an
   outstanding cap: every arrival runs, timed from its due time. *)
let open_loop w ~prng ~rate ~start (draw : unit -> unit -> bool * int) =
  let rec next due =
    if due < w.t_end then begin
      Engine.sleep_until w.eng due;
      let op = draw () in
      Engine.spawn w.eng (fun () -> timed_op w op);
      next (due +. Prng.exponential prng (1.0 /. rate))
    end
  in
  next start

let ok_of = function Ok _ -> true | Error _ -> false
let must what = function Ok v -> v | Error st -> failwith (what ^ ": " ^ Nfs.status_name st)

let write_file cl fh size =
  let rec loop off =
    if off < size then begin
      let n = min chunk (size - off) in
      ignore (must "write" (Client.write_at cl fh ~off:(Int64.of_int off) ~data:(Nfs.Synthetic n) ()));
      loop (off + n)
    end
  in
  loop 0;
  if size > 0 then must "commit" (Client.commit cl fh)

(* ---- workload descriptions ---- *)

type instance = {
  ens : Ensemble.t;
  clients : Client.t list;
  prepare : unit -> window -> string list;
      (** fiber: set up, then return the load generator, which runs the window
          and returns its verification failures *)
}

type t = {
  name : string;
  warmup : float;  (** simulated seconds between setup and window *)
  duration : float;  (** simulated length of the window *)
  reps : int;  (** sub-seeds per run, each one window *)
  build : seed:int -> tracer:bool -> instance;
}

let params ~tracer = { Params.default with trace_enabled = tracer }

let clients_on ens ?tenant ~hosts ~ports prefix =
  let vaddr = Ensemble.virtual_addr ens in
  List.concat_map
    (fun h ->
      let host, _ = Ensemble.add_client ?tenant ens ~name:(Printf.sprintf "%s%d" prefix h) in
      List.map (fun port -> Client.create host ~server:vaddr ~port ()) ports)
    (List.init hosts Fun.id)

(* ---- sfs: the SPECsfs97 op mix, open-loop Poisson ---- *)

(* Published SFS97 NFS V3 mix; readdirplus folded into readdir. Create
   removes what it made, so the file set stays fixed, and the 1 % of
   removes go to getattr. *)
type sfs_op = Lookup | Read | Write | Getattr | Setattr | Readlink | Readdir | Create | Access
  | Commit | Fsstat

let sfs_mix =
  [|
    (27.0, Lookup); (18.0, Read); (9.0, Write); (12.0, Getattr); (1.0, Setattr); (7.0, Readlink);
    (11.0, Readdir); (1.0, Create); (7.0, Access); (5.0, Commit); (1.0, Fsstat);
  |]

(* SFS97 file sizes: 94 % of files at or below 64 KB. *)
let sfs_sizes =
  [|
    (33.0, 1024); (21.0, 2048); (13.0, 4096); (10.0, 8192); (8.0, 16384); (5.0, 32768);
    (4.0, 65536); (2.0, 131072); (1.0, 262144); (0.7, 1048576); (0.3, 4194304);
  |]

(* [n] values drawn from a weighted distribution by quota: each value
   gets the floor of its share of [n], and the largest remainders take
   what is left, so every file set has the same mix. *)
let quota n dist =
  let total = Array.fold_left (fun a (w, _) -> a +. w) 0.0 dist in
  let shares = Array.map (fun (w, v) -> (float_of_int n *. w /. total, v)) dist in
  let counts = Array.map (fun (s, _) -> int_of_float s) shares in
  let left = n - Array.fold_left ( + ) 0 counts in
  let by_remainder = Array.init (Array.length dist) Fun.id in
  Array.stable_sort
    (fun i j ->
      let r k = fst shares.(k) -. Float.of_int counts.(k) in
      Float.compare (r j) (r i))
    by_remainder;
  for k = 0 to left - 1 do
    let i = by_remainder.(k) in
    counts.(i) <- counts.(i) + 1
  done;
  Array.concat (Array.to_list (Array.mapi (fun i (_, v) -> Array.make counts.(i) v) shares))

type sfs_file = { f_dir : Fh.t; f_name : string; f_fh : Fh.t; f_size : int }

type sfs_set = { s_dirs : Fh.t array; s_files : sfs_file array; s_links : Fh.t array }

let sfs_processes = 8
let sfs_rate = 3500.0
let sfs_files_per_process = 96

let sfs_build_set cl ~proc ~prng =
  let top = fst (must "mkdir" (Client.mkdir cl Ensemble.root (Printf.sprintf "sfs%d" proc))) in
  let dirs =
    Array.init 4 (fun i ->
        if i = 0 then top else fst (must "mkdir" (Client.mkdir cl top (Printf.sprintf "d%d" i))))
  in
  (* the hot fifth and the rest each follow the size distribution by
     quota, in an order shuffled from the seed *)
  let hot = sfs_files_per_process / 5 in
  let part n =
    let a = quota n sfs_sizes in
    Prng.shuffle prng a;
    a
  in
  let sizes = Array.append (part hot) (part (sfs_files_per_process - hot)) in
  let files =
    Array.init sfs_files_per_process (fun i ->
        let dir = dirs.(i mod Array.length dirs) and name = Printf.sprintf "f%04d" i in
        let fh = fst (must "create" (Client.create_file cl dir name)) in
        let size = sizes.(i) in
        write_file cl fh size;
        { f_dir = dir; f_name = name; f_fh = fh; f_size = size })
  in
  let links =
    Array.init 8 (fun i ->
        fst
          (must "symlink"
             (Client.symlink cl dirs.(i mod 4) (Printf.sprintf "l%d" i) ~target:"f0000")))
  in
  { s_dirs = dirs; s_files = files; s_links = links }

(* Draw one op at its arrival; the returned closure performs it. *)
let sfs_draw cl prng set ~fresh () =
  let n = Array.length set.s_files in
  let file () =
    (* 80/20 hot set *)
    if Prng.float prng 1.0 < 0.8 then set.s_files.(Prng.int prng (max 1 (n / 5)))
    else set.s_files.(Prng.int prng n)
  in
  let span f =
    let off = if f.f_size <= chunk then 0 else Prng.int prng (f.f_size / chunk) * chunk in
    (Int64.of_int off, min chunk (max 1 (f.f_size - off)))
  in
  let plain r () = (ok_of r, 0) in
  match Prng.weighted prng sfs_mix with
  | Lookup ->
      let f = file () in
      fun () -> plain (Client.lookup cl f.f_dir f.f_name) ()
  | Read -> (
      let f = file () in
      let off, count = span f in
      fun () ->
        match Client.read_at cl f.f_fh ~off ~count with
        | Ok (d, _) -> (Nfs.wdata_length d = count, count)
        | Error _ -> (false, 0))
  | Write ->
      let f = file () in
      let off, count = span f in
      fun () ->
        (ok_of (Client.write_at cl f.f_fh ~off ~data:(Nfs.Synthetic count) ()), count)
  | Getattr ->
      let f = file () in
      fun () -> plain (Client.getattr cl f.f_fh) ()
  | Setattr ->
      let f = file () in
      fun () -> plain (Client.setattr cl f.f_fh (Nfs.sattr_times ~mtime:0.0 ())) ()
  | Readlink ->
      let l = set.s_links.(Prng.int prng (Array.length set.s_links)) in
      fun () -> plain (Client.call cl (Nfs.Readlink l)) ()
  | Readdir ->
      let d = set.s_dirs.(Prng.int prng (Array.length set.s_dirs)) in
      fun () -> plain (Client.call cl (Nfs.Readdir (d, 0L, 32))) ()
  | Create ->
      incr fresh;
      let d = set.s_dirs.(Prng.int prng (Array.length set.s_dirs)) in
      let name = Printf.sprintf "tmp%07d" !fresh in
      fun () ->
        let created = ok_of (Client.create_file cl d name) in
        (created && ok_of (Client.remove cl d name), 0)
  | Access ->
      let f = file () in
      fun () -> plain (Client.access cl f.f_fh) ()
  | Commit ->
      let f = file () in
      fun () -> plain (Client.commit cl f.f_fh) ()
  | Fsstat ->
      let f = file () in
      fun () -> plain (Client.call cl (Nfs.Fsstat f.f_fh)) ()

let sfs =
  let build ~seed ~tracer =
    let ens =
      Ensemble.create { Ensemble.default_config with seed; proxy_params = params ~tracer }
    in
    let clients = clients_on ens ~hosts:4 ~ports:[ 2001; 2002 ] "sfs" in
    let cls = Array.of_list clients in
    let prepare () =
      let sets = Array.make sfs_processes None in
      Fiber.join_all (Ensemble.engine ens)
        (List.init sfs_processes (fun p () ->
             let prng = Prng.create ((seed * 7919) + p) in
             sets.(p) <- Some (sfs_build_set cls.(p) ~proc:p ~prng)));
      fun w ->
        Fiber.join_all w.eng
          (List.init sfs_processes (fun p () ->
               let prng = Prng.create ((seed * 104729) + p) in
               let set = Option.get sets.(p) and fresh = ref (p * 1_000_000) in
               open_loop w ~prng
                 ~rate:(sfs_rate /. float_of_int sfs_processes)
                 ~start:(Engine.now w.eng +. Prng.float prng 0.01)
                 (sfs_draw cls.(p) prng set ~fresh)));
        []
    in
    { ens; clients; prepare }
  in
  { name = "sfs"; warmup = 0.3; duration = 2.5; reps = 6; build }

(* ---- bulk: closed-loop dd-style streams over mirrored striped files ---- *)

let bulk_hosts = 4
let bulk_files_per_reader = 4

(* File sizes are drawn from the seed: 4 to 12 MB in whole chunks. *)
let bulk_chunks prng = 128 + Prng.int prng 257

let bulk =
  let build ~seed ~tracer =
    (* a storage cache four times smaller than the mirrored data *)
    let ens =
      Ensemble.create
        {
          Ensemble.default_config with
          seed;
          storage_cache = 16 * 1024 * 1024;
          mirror_new_files = true;
          proxy_params = params ~tracer;
        }
    in
    (* each client host runs one writer and one reader, which share its CPU *)
    let pairs = Array.of_list (clients_on ens ~hosts:bulk_hosts ~ports:[ 2001; 2002 ] "bulk") in
    let writers = Array.init bulk_hosts (fun i -> pairs.(2 * i))
    and readers = Array.init bulk_hosts (fun i -> pairs.((2 * i) + 1)) in
    let prng = Prng.create ((seed * 7) + 3) in
    let prepare () =
      let eng = Ensemble.engine ens in
      let mkdir cl name = fst (must "mkdir" (Client.mkdir cl Ensemble.root name)) in
      let sizes = Array.map (fun _ -> Array.init bulk_files_per_reader (fun _ -> bulk_chunks prng)) readers in
      let files = Array.make bulk_hosts [||] in
      Fiber.join_all eng
        (List.init bulk_hosts (fun r () ->
             let cl = readers.(r) in
             let dir = mkdir cl (Printf.sprintf "r%d" r) in
             files.(r) <-
               Array.mapi
                 (fun i n ->
                   let fh = fst (must "create" (Client.create_file cl dir (Printf.sprintf "f%d" i))) in
                   write_file cl fh (n * chunk);
                   (fh, n))
                 sizes.(r)));
      let wdirs = Array.mapi (fun i cl -> mkdir cl (Printf.sprintf "w%d" i)) writers in
      let stagger = Array.init (2 * bulk_hosts) (fun _ -> Prng.float prng 0.005) in
      let wprngs = Array.map (fun _ -> Prng.split prng) writers in
      fun w ->
        let errors = ref [] in
        let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
        let written = ref [] in
        (* a writer streams whole files: write-behind window of 8, then
           commit; it starts no new file after [t_end] *)
        let writer i () =
          let cl = writers.(i) in
          Engine.sleep eng stagger.(i);
          let k = ref 0 in
          while Engine.now eng < w.t_end do
            let name = Printf.sprintf "s%d" !k and n = bulk_chunks wprngs.(i) in
            incr k;
            match Client.create_file cl wdirs.(i) name with
            | Error st -> fail "bulk: create %s failed: %s" name (Nfs.status_name st)
            | Ok (fh, _) ->
                Fiber.parallel_window eng ~window:8 n (fun c ->
                    timed_op w (fun () ->
                        let r =
                          Client.write_at cl fh
                            ~off:(Int64.of_int (c * chunk))
                            ~data:(Nfs.Synthetic chunk) ()
                        in
                        (ok_of r, chunk)));
                if not (ok_of (Client.commit cl fh)) then fail "bulk: commit of writer %d failed" i;
                written := (cl, fh, n) :: !written
          done
        in
        (* a reader streams its files with a read-ahead window of 4 and
           checks every reply against the written size *)
        let reader r () =
          let cl = readers.(r) in
          Engine.sleep eng stagger.(bulk_hosts + r);
          while Engine.now eng < w.t_end do
            Array.iter
              (fun (fh, n) ->
                Fiber.parallel_window eng ~window:4 n (fun c ->
                    timed_op w (fun () ->
                        match Client.read_at cl fh ~off:(Int64.of_int (c * chunk)) ~count:chunk with
                        | Ok (d, eof) ->
                            let got = Nfs.wdata_length d in
                            if got <> chunk || eof <> (c = n - 1) then
                              fail "bulk: reader %d got %d bytes (eof %b) at chunk %d of %d" r got
                                eof c n;
                            (got = chunk, got)
                        | Error _ -> (false, 0))))
              files.(r)
          done
        in
        Fiber.join_all eng (List.init bulk_hosts writer @ List.init bulk_hosts reader);
        (* every object reads back at the size written *)
        let check (cl, fh, n) =
          match Client.getattr cl fh with
          | Ok a when a.Nfs.size = Int64.of_int (n * chunk) -> ()
          | Ok a -> fail "bulk: object reads back %Ld bytes, %d written" a.Nfs.size (n * chunk)
          | Error st -> fail "bulk: getattr: %s" (Nfs.status_name st)
        in
        List.iter check !written;
        Array.iteri (fun r fs -> Array.iter (fun (fh, n) -> check (readers.(r), fh, n)) fs) files;
        List.rev !errors
    in
    { ens; clients = Array.to_list pairs; prepare }
  in
  { name = "bulk"; warmup = 0.2; duration = 1.0; reps = 24; build }

(* ---- storm: three tenants under QoS on the tight 2x6-arm ensemble ---- *)

let storm_tenants =
  [|
    Tenant.spec ~klass:Tenant.Interactive ~name:"web" ~weight:16.0 ();
    Tenant.spec ~klass:Tenant.Batch ~name:"flood" ~weight:3.0 ();
    Tenant.spec ~klass:Tenant.Background ~name:"scan" ~weight:1.5 ~admit_rate:600.0
      ~admit_burst:40.0 ();
    Tenant.spec ~klass:Tenant.Batch ~name:"system" ~weight:6.0 ();
  |]

let web_files = 48
let flood_files = 128

let read_whole cl (e : Stormgen.entry) =
  let rec rd off ok =
    if off >= e.Stormgen.e_size then ok
    else
      let c = min chunk (e.Stormgen.e_size - off) in
      let good =
        match Client.read_at cl e.Stormgen.e_fh ~off:(Int64.of_int off) ~count:c with
        | Ok (d, _) -> Nfs.wdata_length d = c
        | Error _ -> false
      in
      rd (off + c) (ok && good)
  in
  (rd 0 true, e.Stormgen.e_size)

let storm =
  let build ~seed ~tracer =
    let ens =
      Ensemble.create
        {
          Ensemble.default_config with
          seed;
          storage_nodes = 2;
          disks_per_node = 6;
          storage_cache = 2 * 1024 * 1024;
          smallfile_cache = 16 * 1024 * 1024;
          mirror_new_files = true;
          proxy_params = params ~tracer;
          qos =
            Some
              { Ensemble.tenants = storm_tenants; wfq_depth = 4; p2c_reads = true; system_tenant = 3 };
        }
    in
    let one tenant name = List.hd (clients_on ens ~tenant ~hosts:1 ~ports:[ 2001 ] name) in
    let web = one 0 "web" and flood = one 1 "flood" and scan = one 2 "scan" in
    let prepare () =
      let eng = Ensemble.engine ens in
      let web_tree = ref None and flood_tree = ref None in
      Fiber.join_all eng
        [
          (fun () ->
            web_tree :=
              Some
                (Stormgen.build_tree web ~root:Ensemble.root ~name:"web" ~dirs:6 ~files:web_files
                   ~size_of:(fun _ -> 262144)));
          (fun () ->
            flood_tree :=
              Some
                (Stormgen.build_tree flood ~root:Ensemble.root ~name:"flood" ~dirs:4
                   ~files:flood_files
                   ~size_of:(fun i -> 4096 + (i * 4096 mod 61440))));
        ];
      let web_tree = Option.get !web_tree and flood_tree = Option.get !flood_tree in
      fun w ->
        let zipf = Zipf.create ~n:web_files ~s:1.1 in
        let hot_at = w.t_measure +. ((w.t_end -. w.t_measure) /. 2.0) in
        let hot =
          Array.of_list
            (List.filter (fun i -> web_tree.Stormgen.tr_dir_of.(i) = 0) (List.init web_files Fun.id))
        in
        let web_prng = Prng.create ((seed * 31) + 101) in
        (* open-loop Zipf page reads at mirrored offsets; half of them
           collapse onto directory 0 once the flash crowd starts *)
        let web_draw () =
          let idx =
            if Engine.now eng >= hot_at && Prng.float web_prng 1.0 < 0.5 then
              hot.(Prng.int web_prng (Array.length hot))
            else Zipf.sample zipf web_prng
          in
          let f = web_tree.Stormgen.tr_files.(idx) in
          let chunks = max 1 (f.Stormgen.e_size / chunk) in
          let lo = min (65536 / chunk) (chunks - 1) in
          let off = (lo + Prng.int web_prng (chunks - lo)) * chunk in
          fun () ->
            match Client.read_at web f.Stormgen.e_fh ~off:(Int64.of_int off) ~count:chunk with
            | Ok (d, _) -> (Nfs.wdata_length d = chunk, chunk)
            | Error _ -> (false, 0)
        in
        let flood_prng = Prng.create ((seed * 31) + 202) in
        let flood_worker prng () =
          while Engine.now eng < w.t_end do
            let f = flood_tree.Stormgen.tr_files.(Prng.int prng flood_files) in
            timed_op w ~timed:false (fun () -> read_whole flood f)
          done
        in
        (* the scanner partitions both trees by index mod worker *)
        let scan_worker k () =
          let mine i = i mod 8 = k && Engine.now eng < w.t_end in
          while Engine.now eng < w.t_end do
            List.iter
              (fun (tr : Stormgen.tree) ->
                Array.iteri
                  (fun i d ->
                    if mine i then
                      timed_op w ~timed:false (fun () -> (ok_of (Client.readdir_all scan d), 0)))
                  tr.Stormgen.tr_dirs;
                Array.iteri
                  (fun i f ->
                    if mine i then
                      timed_op w ~timed:false (fun () ->
                          let attr = ok_of (Client.getattr scan f.Stormgen.e_fh) in
                          let ok, n = read_whole scan f in
                          (attr && ok, n)))
                  tr.Stormgen.tr_files)
              [ web_tree; flood_tree ]
          done
        in
        Fiber.join_all eng
          ((fun () ->
             open_loop w ~prng:web_prng ~rate:500.0
               ~start:(Engine.now eng +. Prng.float web_prng 0.02)
               web_draw)
          :: List.init 32 (fun _ -> flood_worker (Prng.split flood_prng))
          @ List.init 8 scan_worker);
        []
    in
    { ens; clients = [ web; flood; scan ]; prepare }
  in
  { name = "storm"; warmup = 0.5; duration = 3.0; reps = 32; build }

let all = [ sfs; bulk; storm ]

(* ---- layer counters read at the window edges ---- *)

let sum f xs = Array.fold_left (fun a x -> a +. float_of_int (f x)) 0.0 xs

(* Named raw counters over every part of the ensemble, each read through
   a public accessor. *)
let gauges inst =
  let ens = inst.ens in
  let net = Ensemble.net ens in
  let storage = Ensemble.storage ens
  and dirs = Ensemble.dirs ens
  and sfs = Ensemble.smallfiles ens in
  let proxies = Array.of_list (Ensemble.client_proxies ens) in
  let meta () = Ensemble.meta_cache_totals ens in
  let hosts =
    Array.to_list (Array.map Obsd.host storage)
    @ Array.to_list (Array.map Dirserver.host dirs)
    @ Array.to_list (Array.map Smallfile.host sfs)
    @ List.map Client.host inst.clients
  in
  let per_node prefix f = List.mapi (fun i h -> (Printf.sprintf "%s.%d" prefix i, fun () -> f h)) in
  let disks = Array.to_list (Array.map Obsd.disk storage) in
  let i f () = float_of_int (f ()) in
  [
    ("net.pkts", i (fun () -> Net.packets_sent net));
    ("net.bytes", i (fun () -> Net.bytes_sent net));
    ("net.retx", fun () -> List.fold_left (fun a c -> a +. float_of_int (Client.retransmissions c)) 0.0 inst.clients);
    ("proxy.pkts", fun () -> sum Proxy.packets_intercepted proxies +. sum Proxy.replies_processed proxies);
    ("proxy.meta_hits", i (fun () -> (meta ()).Proxy.hits + (meta ()).Proxy.negative_hits));
    ("proxy.meta_misses", i (fun () -> (meta ()).Proxy.misses));
    ("proxy.route_dir", fun () -> sum Proxy.routed_to_dir proxies);
    ("proxy.route_smallfile", fun () -> sum Proxy.routed_to_smallfile proxies);
    ("proxy.route_storage", fun () -> sum Proxy.routed_to_storage proxies);
    ("proxy.defer", fun () -> sum Proxy.admission_deferrals proxies);
    ("proxy.p2c_probes", fun () -> sum Proxy.p2c_probes proxies);
    ("proxy.p2c_diverted", fun () -> sum Proxy.p2c_diverted proxies);
    ("storage.hits", fun () -> sum Obsd.cache_hits storage);
    ("storage.misses", fun () -> sum Obsd.cache_misses storage);
    ("storage.ios", fun () -> sum Obsd.reads storage +. sum Obsd.writes storage);
    ( "coordinator.intents",
      i (fun () ->
          match Ensemble.coordinator ens with Some c -> Coordinator.intents_logged c | None -> 0) );
    ("disk.ops", fun () -> List.fold_left (fun a d -> a +. float_of_int (Disk.ops d)) 0.0 disks);
    ("dir.ops", fun () -> sum Dirserver.ops_served dirs);
    ("dir.cross", fun () -> sum Dirserver.cross_site_ops dirs);
    ("dir.log_bytes", fun () -> sum Dirserver.log_bytes dirs);
    ("smallfile.hits", fun () -> sum Smallfile.cache_hits sfs);
    ("smallfile.misses", fun () -> sum Smallfile.cache_misses sfs);
    ("smallfile.ops", fun () -> sum Smallfile.reads sfs +. sum Smallfile.writes sfs);
  ]
  @ per_node "nic" (fun (h : Host.t) -> Net.nic_busy_time net h.Host.addr) hosts
  @ per_node "arm" (fun d -> Disk.arm_busy_time d /. float_of_int (Disk.arms d)) disks
  @ per_node "chan" Disk.channel_busy_time disks

let read gs = List.map (fun (k, g) -> (k, g ())) gs

(* Per-layer metrics of one window from the counter deltas. *)
let layer_metrics ~before ~after ~ops ~window =
  let d k = List.assoc k after -. List.assoc k before in
  let nodes prefix =
    List.filter_map
      (fun (k, _) ->
        if String.starts_with ~prefix:(prefix ^ ".") k then Some (Ledger.ratio (d k) window)
        else None)
      after
  in
  let maxl = List.fold_left Float.max 0.0 in
  let mean l = Ledger.ratio (List.fold_left ( +. ) 0.0 l) (float_of_int (List.length l)) in
  let per_op k = Ledger.ratio (d k) ops in
  let hit h m = Ledger.ratio (d h) (d h +. d m) in
  [
    ("net.pkts_per_op", "count/op", per_op "net.pkts");
    ("net.bytes_per_op", "B/op", per_op "net.bytes");
    ("net.retx_per_kop", "1/kop", 1000.0 *. per_op "net.retx");
    ("net.nic_util_max", "ratio", maxl (nodes "nic"));
    ("proxy.pkts_per_op", "count/op", per_op "proxy.pkts");
    ("proxy.meta_hit_ratio", "ratio", hit "proxy.meta_hits" "proxy.meta_misses");
    ("proxy.route_dir_per_op", "count/op", per_op "proxy.route_dir");
    ("proxy.route_smallfile_per_op", "count/op", per_op "proxy.route_smallfile");
    ("proxy.route_storage_per_op", "count/op", per_op "proxy.route_storage");
    ("proxy.defer_per_kop", "1/kop", 1000.0 *. per_op "proxy.defer");
    ( "proxy.p2c_divert_ratio",
      "ratio",
      Ledger.ratio (d "proxy.p2c_diverted") (d "proxy.p2c_probes") );
    ("storage.cache_hit_ratio", "ratio", hit "storage.hits" "storage.misses");
    ("storage.ios_per_op", "count/op", per_op "storage.ios");
    ("coordinator.intents_per_op", "count/op", per_op "coordinator.intents");
    ("disk.arm_util_mean", "ratio", mean (nodes "arm"));
    ("disk.arm_util_max", "ratio", maxl (nodes "arm"));
    ("disk.channel_util_max", "ratio", maxl (nodes "chan"));
    ("disk.ops_per_op", "count/op", per_op "disk.ops");
    ("dir.ops_per_op", "count/op", per_op "dir.ops");
    ("dir.cross_site_per_op", "count/op", per_op "dir.cross");
    ("dir.log_bytes_per_op", "B/op", per_op "dir.log_bytes");
    ("smallfile.cache_hit_ratio", "ratio", hit "smallfile.hits" "smallfile.misses");
    ("smallfile.ops_per_op", "count/op", per_op "smallfile.ops");
  ]

(* Queueing delay p99 per storm tenant (over the whole run: the tenant
   reservoirs cannot be windowed through the public API). *)
let qos_metrics ens =
  List.map
    (fun (i, name) ->
      let v =
        match Ensemble.qos_tenants ens with
        | Some reg -> 1e3 *. Stats.percentile (Tenant.queue_delay reg i) 99.0
        | None -> 0.0
      in
      (Printf.sprintf "qos.%s.queue_delay_p99_ms" name, v))
    [ (0, "web"); (1, "flood"); (2, "scan") ]

(* Window-end registry snapshot; the tracer's own gauges are dropped so
   the traced and untraced dumps compare byte for byte. *)
let dump_without_trace ens =
  let rec strip = function
    | Json.Obj kvs ->
        Json.Obj
          (List.filter_map
             (fun (k, v) ->
               if String.starts_with ~prefix:"trace." k then None else Some (k, strip v))
             kvs)
    | v -> v
  in
  Json.to_string (strip (Metrics.dump (Ensemble.metrics ens)))

(* Mean simulated self time per request for each hop, and spans per
   request, from the span trees of the whole run. *)
let hop_names = [ "proxy"; "rpc"; "server"; "disk"; "wal"; "network" ]

let hop_metrics tr =
  let rows = Trace.hop_breakdown tr in
  let requests =
    float_of_int
      (List.fold_left (fun a (_, hop, s) -> if hop = "total" then a + Stats.count s else a) 0 rows)
  in
  ("trace.spans_per_op", Ledger.ratio (float_of_int (Trace.count tr)) requests)
  :: List.map
       (fun h ->
         let total =
           List.fold_left (fun a (_, hop, s) -> if hop = h then a +. Stats.sum s else a) 0.0 rows
         in
         (Printf.sprintf "hop.%s.self_ms" h, 1e3 *. Ledger.ratio total requests))
       hop_names
