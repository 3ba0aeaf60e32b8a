(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus Bechamel microbenchmarks of the µproxy hot paths and
   ablations of the design choices called out in DESIGN.md.

   Usage:
     dune exec bench/main.exe                 -- everything, bench scale
     dune exec bench/main.exe -- table2       -- one exhibit
     dune exec bench/main.exe -- all --full   -- slower, larger scales
     dune exec bench/main.exe -- --smoke      -- BENCH.json + its gates

   Scales shrink file sizes / op counts / file sets (and, for SPECsfs,
   the server caches by the same rule) so the whole run finishes in
   minutes; shapes are scale-invariant (see EXPERIMENTS.md). *)

module E = Slice_experiments
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Packet = Slice_net.Packet
module Cksum = Slice_net.Cksum
module Routekey = Slice_nfs.Routekey
module Json = Slice_util.Json
module Specsfs = Slice_workload.Specsfs
module Net = Slice_net.Net
module Host = Slice_storage.Host
module Engine = Slice_sim.Engine

(* ---- Bechamel microbenchmarks: the real code on the µproxy's critical
   path, one group per exhibit that leans on it ---- *)

let sample_fh =
  { Fh.file_id = 424242L; gen = 1; ftype = Fh.Reg; mirrored = false; attr_site = 0; cap = 0L }

let sample_call = Codec.encode_call ~xid:7 (Nfs.Lookup (sample_fh, "kern_descrip.c"))

let sample_pkt () =
  Packet.make ~src:3 ~dst:9 ~sport:1000 ~dport:2049 (Bytes.copy sample_call)

let micro_tests =
  let open Bechamel in
  Test.make_grouped ~name:"uproxy"
    [
      (* Table 3: packet decode — the cheap header probes, the cursor
         peek the µproxy runs per packet, and the full decode it avoids *)
      Test.make ~name:"table3/is-call"
        (Staged.stage (fun () -> ignore (Codec.is_call sample_call)));
      Test.make ~name:"table3/xid-of"
        (Staged.stage (fun () -> ignore (Codec.xid_of sample_call)));
      (let c = Codec.cursor () in
       Test.make ~name:"table3/peek-call"
         (Staged.stage (fun () -> ignore (Codec.peek_call_into c sample_call))));
      Test.make ~name:"table3/full-decode"
        (Staged.stage (fun () -> ignore (Codec.decode_call sample_call)));
      Test.make ~name:"table3/reply-status"
        (Staged.stage (fun () -> ignore (Slice.Proxy.reply_status sample_call)));
      (* Table 3: redirection/rewriting — incremental checksum vs naive *)
      (let pkt = sample_pkt () in
       Test.make ~name:"table3/rewrite-dst-incremental"
         (Staged.stage (fun () -> Cksum.rewrite_dst pkt ((pkt.Packet.dst + 1) land 0xFF))));
      (let pkt = sample_pkt () in
       Test.make ~name:"table3/checksum-full-recompute"
         (Staged.stage (fun () -> ignore (Cksum.compute pkt))));
      (* Table 2: bulk I/O routing *)
      Test.make ~name:"table2/stripe-route"
        (Staged.stage (fun () ->
             ignore (Routekey.stripe_site ~nsites:8 ~stripe_unit:32768 sample_fh 1048576L);
             ignore (Routekey.local_offset ~nsites:8 ~stripe_unit:32768 1048576L)));
      (* Figures 3/4: name-space routing hash — MD5 (the paper's choice)
         vs FNV (the "competing hash function" ablation) *)
      Test.make ~name:"fig3/md5-name-site"
        (Staged.stage (fun () -> ignore (Routekey.name_site ~nsites:4 sample_fh "dir01234")));
      Test.make ~name:"fig3/fnv-name-site"
        (Staged.stage (fun () ->
             ignore (Slice_hash.Fnv.bucket (Fh.key sample_fh ^ "\x00dir01234") 4)));
      (* Figures 5/6: per-op wire cost *)
      Test.make ~name:"fig5/encode-write-call"
        (Staged.stage (fun () ->
             ignore
               (Codec.encode_call ~xid:9 (Nfs.Write (sample_fh, 0L, Nfs.Unstable, Nfs.Synthetic 8192)))));
      (let wal = Slice_wal.Wal.create ~name:"bench" () in
       Test.make ~name:"managers/wal-append"
         (Staged.stage (fun () -> ignore (Slice_wal.Wal.append wal ~rtype:1 "0123456789abcdef"))));
      (* metadata fast path: lease-aware cache lookup and the percentile
         query every exhibit's latency lines lean on *)
      (let lru : (int, int) Slice_util.Lru.t = Slice_util.Lru.create ~capacity:4096 () in
       for i = 0 to 4095 do
         Slice_util.Lru.add lru ~expires_at:infinity i i
       done;
       let k = ref 0 in
       Test.make ~name:"metacache/lru-find-ttl"
         (Staged.stage (fun () ->
              k := (!k + 17) land 4095;
              ignore (Slice_util.Lru.find_ttl lru !k ~now:1.0))));
      (let s = Slice_util.Stats.create () in
       let p = Slice_util.Prng.create 5 in
       for _ = 1 to 10_000 do
         Slice_util.Stats.add s (Slice_util.Prng.float p 1.0)
       done;
       Test.make ~name:"metacache/stats-percentile-cached"
         (Staged.stage (fun () -> ignore (Slice_util.Stats.percentile s 99.0))));
    ]

(* Minor words allocated, read from [Gc.minor_words]: Bechamel's own
   [minor_allocated] reads [Gc.quick_stat], which on OCaml 5 advances
   only at minor collections and so reports zero for short samples. *)
module Minor_words = struct
  type witness = unit

  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "w"
end

let minor_words =
  Bechamel.Measure.instance (module Minor_words) (Bechamel.Measure.register (module Minor_words))

(* Returns (name, ns_per_op, words_per_op) rows, each an OLS slope over
   Bechamel's run counts; NaN when Bechamel produced no estimate. *)
let run_micro ?(quota = 0.25) () =
  let open Bechamel in
  print_endline "\n== Microbenchmarks (Bechamel, per op) ==";
  print_endline "the real hot-path code behind each exhibit:";
  (* No Gc.compact before each sample: within a short quota it leaves so
     few samples that the fixed per-sample overhead (a few boxed floats)
     leaks into the words slope of code that allocates nothing. *)
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false () in
  let clock = Toolkit.Instance.monotonic_clock and words = minor_words in
  let raw = Benchmark.all cfg [ clock; words ] micro_tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let estimates instance =
    let results = Analyze.all ols instance raw in
    fun name ->
      match Option.bind (Hashtbl.find_opt results name) Analyze.OLS.estimates with
      | Some (t :: _) -> t
      | _ -> Float.nan
  in
  let ns = estimates clock and wpo = estimates words in
  let names = List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) raw []) in
  List.map
    (fun name ->
      Printf.printf "  %-44s %10.1f ns/op %8.2f words/op\n" name (ns name) (wpo name);
      (name, ns name, wpo name))
    names

(* ---- the µproxy's per-packet cost, two ways: through a full SPECsfs
   ensemble (the whole system per intercepted packet) and through one
   installed µproxy driven directly (the packet path alone) ---- *)

(* One small SPECsfs mix through a full Slice ensemble, Gc counters and
   CPU clock around the proxy loop; packets come from the µproxies'
   interception counters so the denominator is real routed traffic. A
   tick every 0.5 ms of simulated time records the engine queue's peak
   — it reads the queue and nothing else, so the run's own events keep
   their order — and stops once nothing else is queued. *)
let specsfs_packet_cost ~scale =
  let ens =
    Slice.Ensemble.create
      {
        Slice.Ensemble.default_config with
        storage_nodes = 2;
        dir_servers = 1;
        smallfile_servers = 2;
      }
  in
  let eng = Slice.Ensemble.engine ens in
  let clients =
    Array.init 2 (fun i ->
        let host, _ = Slice.Ensemble.add_client ens ~name:(Printf.sprintf "sfs%d" i) in
        Slice_workload.Client.create host ~server:(Slice.Ensemble.virtual_addr ens)
          ~port:(1000 + i) ())
  in
  let cfg =
    {
      Specsfs.default_config with
      offered_iops = 300.0;
      processes = 4;
      duration = 2.0;
      warmup = 0.5;
      bytes_per_iops = 1e7 *. scale;
      seed = 11;
    }
  in
  let heap_peak = ref 0 in
  let rec tick () =
    let n = Engine.pending eng in
    if n > !heap_peak then heap_peak := n;
    if n > 0 then Engine.schedule eng 5e-4 tick
  in
  Engine.schedule eng 0.0 tick;
  let w0 = Gc.minor_words () in
  (* lint: D1 ok — real CPU time is the measurement here, not part of the simulated world *)
  let t0 = Sys.time () in
  let r = Specsfs.run eng ~clients ~root:Slice.Ensemble.root cfg in
  (* lint: D1 ok — real CPU time is the measurement here, not part of the simulated world *)
  let dt = Sys.time () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  let packets =
    List.fold_left
      (fun acc p -> acc + Slice.Proxy.packets_intercepted p)
      0
      (Slice.Ensemble.client_proxies ens)
  in
  let denom = float_of_int (max 1 packets) in
  (r, packets, dw /. denom, dt *. 1e9 /. denom, !heap_peak)

let packet_mix i =
  let fh =
    { Fh.file_id = Int64.of_int (1000 + (i mod 8)); gen = 1; ftype = Fh.Reg; mirrored = false;
      attr_site = 0; cap = 0L }
  in
  let attr = Nfs.default_attr ~ftype:Fh.Reg ~fileid:fh.Fh.file_id ~now:0.0 in
  match i mod 5 with
  | 0 -> (Nfs.Lookup (Fh.root, Printf.sprintf "f%d" (i mod 8)), Ok (Nfs.RLookup (fh, attr)))
  | 1 -> (Nfs.Getattr fh, Ok (Nfs.RGetattr attr))
  | 2 -> (Nfs.Access (fh, 1), Ok (Nfs.RAccess (1, attr)))
  | 3 ->
      ( Nfs.Read (fh, Int64.of_int (i mod 32 * 8192), 8192),
        Ok (Nfs.RRead (Nfs.Synthetic 8192, false, attr)) )
  | _ ->
      ( Nfs.Write (fh, Int64.of_int (i mod 32 * 8192), Nfs.Unstable, Nfs.Synthetic 4096),
        Ok (Nfs.RWrite (4096, Nfs.Unstable, attr)) )

(* Words and nanoseconds per packet through the installed µproxy —
   egress/ingress filters, cursor peeks, pending pool, forwarding, reply
   patching — over a SPECsfs-shaped mix of calls and replies. Meta fast
   path off (it would answer from cache and skip forwarding) and the
   expiry sweep off (idle timers would pollute the Gc window). *)
let packet_path_cost () =
  let eng = Engine.create () in
  let net = Net.create eng () in
  let chost = Host.create net ~name:"client" () in
  let dhost = Host.create net ~name:"dir" () in
  let s0 = Host.create net ~name:"s0" () in
  let s1 = Host.create net ~name:"s1" () in
  let vaddr = Net.add_node net ~name:"virt" in
  let params =
    {
      Slice.Params.default with
      threshold = 0;
      meta_cache_enabled = false;
      pending_sweep_interval = 0.0;
    }
  in
  let proxy =
    Slice.Proxy.install chost ~params
      {
        Slice.Proxy.virtual_addr = vaddr;
        dir_table = Slice.Table.create [| dhost.Host.addr |];
        smallfile_table = None;
        storage = Some (Slice.Table.create [| s0.Host.addr; s1.Host.addr |]);
        coordinator = (fun () -> None);
      }
  in
  let n = 2048 in
  let pkts =
    Array.init n (fun i ->
        Packet.make ~src:chost.Host.addr ~dst:vaddr ~sport:1000 ~dport:2049
          (Codec.encode_call ~xid:(0x100000 + i) (fst (packet_mix i))))
  in
  let rpkts =
    Array.init n (fun i ->
        Packet.make ~src:dhost.Host.addr ~dst:chost.Host.addr ~sport:2049 ~dport:1000
          (Codec.encode_reply ~xid:(0x100000 + i) (snd (packet_mix i))))
  in
  let batch = 128 in
  let run_batch b =
    Engine.spawn eng (fun () ->
        for i = b * batch to ((b + 1) * batch) - 1 do
          Net.send net pkts.(i)
        done);
    Engine.run eng;
    Engine.spawn eng (fun () ->
        for i = b * batch to ((b + 1) * batch) - 1 do
          Net.send net rpkts.(i)
        done);
    Engine.run eng
  in
  run_batch 0 (* warm-up: pool buffers and caches reach steady state *);
  let before =
    Slice.Proxy.packets_intercepted proxy + Slice.Proxy.replies_processed proxy
  in
  let w0 = Gc.minor_words () in
  (* lint: D1 ok — real CPU time is the measurement here, not part of the simulated world *)
  let t0 = Sys.time () in
  for b = 1 to (n / batch) - 1 do
    run_batch b
  done;
  (* lint: D1 ok — real CPU time is the measurement here, not part of the simulated world *)
  let dt = Sys.time () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  let packets =
    Slice.Proxy.packets_intercepted proxy + Slice.Proxy.replies_processed proxy - before
  in
  let denom = float_of_int (max 1 packets) in
  (packets, dw /. denom, dt *. 1e9 /. denom)

(* ---- BENCH.json: one section per exhibit plus the gates over them
   (bench/gates.ml) ---- *)

let artifact_path = "BENCH.json"

(* Non-finite measurements become null, which every gate rejects. *)
let num v = if Float.is_finite v then Json.Num v else Json.Null
let count n = Json.Num (float_of_int n)

let micro_section rows =
  Json.Arr
    (List.map
       (fun (name, ns, words) ->
         Json.Obj
           [ ("name", Json.Str name); ("ns_per_op", num ns); ("words_per_op", num words) ])
       rows)

let offload_section points =
  Json.Arr
    (List.map
       (fun (p : E.Offload.point) ->
         Json.Obj
           [
             ("name", Json.Str p.E.Offload.label);
             ("ops_per_sec", num p.E.Offload.delivered_ops_s);
             ("p50_ms", num p.E.Offload.p50_ms);
             ("p95_ms", num p.E.Offload.p95_ms);
             ("p99_ms", num p.E.Offload.p99_ms);
             ("dir_ops", count p.E.Offload.dir_ops);
           ])
       points)

let scale_section (t : E.Scale.t) =
  let rates = List.map (fun (p : E.Scale.phase) -> p.E.Scale.ph_ops_s) t.E.Scale.phases in
  let rec rises = function a :: (b :: _ as rest) -> num (b -. a) :: rises rest | _ -> [] in
  Json.Obj
    [
      ( "phases",
        Json.Arr
          (List.map
             (fun (p : E.Scale.phase) ->
               Json.Obj
                 [
                   ("name", Json.Str p.E.Scale.ph_label);
                   ("ops", count p.E.Scale.ph_ops);
                   ("ops_per_sec", num p.E.Scale.ph_ops_s);
                 ])
             t.E.Scale.phases) );
      ("phase_rises_ops_s", Json.Arr (rises rates));
      ("sites_moved", count t.E.Scale.sites_moved);
      ("bytes_copied", num (Int64.to_float t.E.Scale.bytes_copied));
      ("audit_lost", count t.E.Scale.audit.E.Scale.aud_lost);
      ("audit_ownership_violations", count t.E.Scale.audit.E.Scale.aud_ownership_violations);
    ]

let failover_section (t : E.Failover.t) =
  let zombies = t.E.Failover.zombies in
  let probed = List.length zombies in
  let fenced =
    List.length (List.filter (fun (z : E.Failover.zombie) -> z.E.Failover.z_update_blocked) zombies)
  in
  Json.Obj
    [
      ( "takeovers",
        Json.Arr
          (List.map
             (fun (tk : E.Failover.takeover) ->
               let detect = tk.E.Failover.tk_detect *. 1e3 in
               let mttr = tk.E.Failover.tk_mttr *. 1e3 in
               Json.Obj
                 [
                   ("class", Json.Str tk.E.Failover.tk_class);
                   ("detect_ms", num detect);
                   ("mttr_ms", num mttr);
                   ("mttr_after_detect_ms", num (mttr -. detect));
                   ("sites", count tk.E.Failover.tk_sites);
                 ])
             t.E.Failover.takeovers) );
      ("requests_lost", count t.E.Failover.audit.E.Failover.aud_lost);
      ("audit_checked", count t.E.Failover.audit.E.Failover.aud_checked);
      ("audit_ownership_violations", count t.E.Failover.audit.E.Failover.aud_ownership_violations);
      ("zombies_probed", count probed);
      ("zombies_fenced", count fenced);
      ("zombies_unfenced", count (probed - fenced));
    ]

let specsfs_section ((r : Specsfs.result), packets, wpp, nspp, heap_peak) =
  Json.Obj
    [
      ("delivered_ops_s", num r.Specsfs.delivered);
      ("ops_measured", count r.Specsfs.ops_measured);
      ("packets", count packets);
      ("words_per_packet", num wpp);
      ("ns_per_packet", num nspp);
      ("engine_heap_peak", count heap_peak);
    ]

let packet_path_section (packets, wpp, nspp) ~full_system_ns =
  Json.Obj
    [
      ("packets", count packets);
      ("words_per_packet", num wpp);
      ("ns_per_packet", num nspp);
      ("ns_below_full_system", num (full_system_ns -. nspp));
    ]

(* Write the sections and the gates over them, then re-read the file
   and run the checker on what landed on disk. *)
let write_artifact sections gates =
  let j = Json.Obj (sections @ [ ("gates", Json.Arr (List.map Gates.to_json gates)) ]) in
  let oc = open_out artifact_path in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  let txt = In_channel.with_open_bin artifact_path In_channel.input_all in
  let failures =
    match Json.of_string txt with
    | exception Json.Parse_error m -> [ "parse error: " ^ m ]
    | j -> Gates.check j
  in
  List.iter (Printf.eprintf "%s: %s\n" artifact_path) failures;
  Printf.printf "\nwrote %s (%d sections, %d gates, %d failed)\n" artifact_path
    (List.length sections) (List.length gates) (List.length failures);
  failures = []

(* ---- ablations ---- *)

let hash_balance_ablation () =
  print_endline "\n== Ablation: MD5 vs FNV routing balance ==";
  print_endline "(the paper chose MD5 for \"balanced distribution and low cost\")";
  let n = 8 and keys = 20_000 in
  let imbalance bucket =
    let counts = Array.make n 0 in
    for i = 1 to keys do
      let k = Printf.sprintf "%Ld/file%06d" (Int64.of_int (i * 7919)) i in
      let b = bucket k n in
      counts.(b) <- counts.(b) + 1
    done;
    let mx = Array.fold_left max 0 counts and mn = Array.fold_left min max_int counts in
    float_of_int mx /. float_of_int mn
  in
  Printf.printf "  max/min bucket load over %d keys, %d sites: md5 %.3f, fnv %.3f\n" keys n
    (imbalance Slice_hash.Md5.bucket)
    (imbalance Slice_hash.Fnv.bucket)

let threshold_ablation ~scale =
  print_endline "\n== Ablation: small-file threshold offset ==";
  print_endline "untar-created small files re-read cold; threshold 0 sends all I/O to the";
  print_endline "storage array, 64 KB serves it from the small-file class:";
  List.iter
    (fun threshold ->
      let ens =
        Slice.Ensemble.create
          {
            Slice.Ensemble.default_config with
            storage_nodes = 2;
            smallfile_servers = (if threshold = 0 then 0 else 2);
            proxy_params = { Slice.Params.default with threshold };
          }
      in
      let eng = Slice.Ensemble.engine ens in
      let host, _ = Slice.Ensemble.add_client ens ~name:"c" in
      let cl = Slice_workload.Client.create host ~server:(Slice.Ensemble.virtual_addr ens) () in
      let files = max 16 (int_of_float (200.0 *. scale)) in
      let lat = ref 0.0 in
      Slice_sim.Engine.spawn eng (fun () ->
          let fhs =
            List.init files (fun i ->
                match
                  Slice_workload.Client.create_file cl Slice.Ensemble.root
                    (Printf.sprintf "f%d" i)
                with
                | Ok (fh, _) ->
                    ignore
                      (Slice_workload.Client.write_at cl fh ~off:0L
                         ~data:(Nfs.Synthetic (4096 + (i mod 8 * 4096))) ());
                    fh
                | Error _ -> failwith "setup")
          in
          ignore (Slice_workload.Client.commit cl (List.hd fhs));
          (* cold storage caches: the threshold decides whether the reads
             are served by the small-file class or go to the array *)
          Array.iter Slice_storage.Obsd.drop_caches (Slice.Ensemble.storage ens);
          let t0 = Slice_sim.Engine.now eng in
          List.iter
            (fun fh -> ignore (Slice_workload.Client.read_at cl fh ~off:0L ~count:4096))
            fhs;
          lat := (Slice_sim.Engine.now eng -. t0) /. float_of_int files);
      Slice_sim.Engine.run eng;
      Printf.printf "  threshold %6d B: avg small read %.2f ms\n" threshold (!lat *. 1e3))
    [ 0; 16384; 65536; 262144 ]

let stripe_unit_ablation ~scale =
  print_endline "\n== Ablation: stripe unit for bulk I/O ==";
  print_endline "single-client sequential read bandwidth by stripe unit:";
  List.iter
    (fun stripe_unit ->
      let ens =
        Slice.Ensemble.create
          {
            Slice.Ensemble.default_config with
            storage_nodes = 8;
            smallfile_servers = 0;
            proxy_params = { Slice.Params.default with threshold = 0; stripe_unit };
          }
      in
      let eng = Slice.Ensemble.engine ens in
      let host, _ = Slice.Ensemble.add_client ens ~name:"c" in
      let cl =
        Slice_workload.Client.create host ~server:(Slice.Ensemble.virtual_addr ens)
          ~io_size:(min stripe_unit 32768) ()
      in
      let bytes = Int64.of_float (3.2e8 *. scale) in
      let fh = { sample_fh with Fh.file_id = Int64.of_int (1000 + stripe_unit) } in
      let mbs = ref 0.0 in
      Slice_sim.Engine.spawn eng (fun () ->
          Slice_workload.Client.sequential_write cl fh ~bytes;
          Array.iter Slice_storage.Obsd.drop_caches (Slice.Ensemble.storage ens);
          let t0 = Slice_sim.Engine.now eng in
          Slice_workload.Client.sequential_read cl fh ~bytes;
          mbs := Int64.to_float bytes /. (Slice_sim.Engine.now eng -. t0) /. 1e6);
      Slice_sim.Engine.run eng;
      Printf.printf "  stripe unit %6d B: %.1f MB/s\n" stripe_unit !mbs)
    [ 8192; 32768; 131072 ]

(* ---- driver ---- *)

let parse_args () =
  let args = Array.to_list Sys.argv in
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let which =
    List.filter
      (fun a ->
        List.mem a
          [
            "table2"; "table3"; "fig3"; "fig4"; "fig5"; "fig6"; "offload"; "micro"; "ablation";
            "all";
          ])
      args
  in
  ((match which with [] -> "all" | w :: _ -> w), full, smoke)

(* CI smoke: every exhibit that carries a gate, at tiny scale, into one
   BENCH.json re-checked from disk. Exit 1 on any failed gate so the
   bench-smoke alias actually gates. *)
let run_smoke () =
  print_endline "bench smoke: micro (tiny quota) + offload (scale 0.05)";
  let micro = run_micro ~quota:0.05 () in
  let offload = E.Offload.compute ~scale:0.05 ~sweep:false () in
  (match offload with
  | off :: on :: _ ->
      Printf.printf "  offload smoke: dir ops %d -> %d (-%.0f%%)\n" off.E.Offload.dir_ops
        on.E.Offload.dir_ops
        (E.Offload.dir_reduction ~off ~on)
  | _ -> ());
  print_endline "bench smoke: scale-out (scale 0.1)";
  let sc = E.Scale.compute ~scale:0.1 () in
  (match sc.E.Scale.phases with
  | first :: _ ->
      let last = List.nth sc.E.Scale.phases (List.length sc.E.Scale.phases - 1) in
      Printf.printf "  scale smoke: %.0f -> %.0f ops/s over %d phases, %d sites moved\n"
        first.E.Scale.ph_ops_s last.E.Scale.ph_ops_s
        (List.length sc.E.Scale.phases)
        sc.E.Scale.sites_moved
  | [] -> ());
  print_endline "bench smoke: failover (scale 0.5)";
  let fo = E.Failover.compute ~scale:0.5 () in
  List.iter
    (fun (tk : E.Failover.takeover) ->
      Printf.printf "  failover smoke: %-11s detect %.0f ms, mttr %.0f ms, %d sites\n"
        tk.E.Failover.tk_class (tk.E.Failover.tk_detect *. 1e3) (tk.E.Failover.tk_mttr *. 1e3)
        tk.E.Failover.tk_sites)
    fo.E.Failover.takeovers;
  print_endline "bench smoke: µproxy cost per packet (full SPECsfs ensemble, scale 0.01)";
  let ((r, s_packets, s_wpp, s_nspp, s_heap) as sfs) = specsfs_packet_cost ~scale:0.01 in
  Printf.printf
    "  specsfs_full: %d packets, %.1f words/packet, %.0f ns/packet (%.0f ops/s), engine heap peak %d\n"
    s_packets s_wpp s_nspp r.Specsfs.delivered s_heap;
  print_endline "bench smoke: µproxy cost per packet (packet path, direct drive)";
  let ((packets, wpp, nspp) as pp) = packet_path_cost () in
  Printf.printf "  packet path: %d packets, %.1f words/packet, %.0f ns/packet (budget %.0f)\n"
    packets wpp nspp Gates.packet_words_budget;
  print_endline "bench smoke: multi-tenant storm (FIFO vs per-tenant QoS)";
  let st = E.Storm.compute () in
  Printf.printf
    "  storm smoke: interactive p99 %.1f -> %.1f ms (bound %.0f), aggregate kept %.1f%%\n"
    (E.Storm.interactive_p99_ms st.E.Storm.st_off)
    (E.Storm.interactive_p99_ms st.E.Storm.st_on)
    st.E.Storm.st_p99_bound_ms
    (100.0 *. st.E.Storm.st_throughput_ratio);
  let sections =
    [
      ("micro", micro_section micro);
      ("offload", offload_section offload);
      ("scale", scale_section sc);
      ("failover", failover_section fo);
      ("specsfs_full", specsfs_section sfs);
      ("packet_path", packet_path_section pp ~full_system_ns:s_nspp);
      ("storm", E.Storm.json_of st);
    ]
  in
  if write_artifact sections Gates.all then print_endline "bench smoke: BENCH.json OK"
  else exit 1

let () =
  let which, full, smoke = parse_args () in
  if smoke then begin
    run_smoke ();
    print_endline "\nbench: done";
    exit 0
  end;
  let want x = which = "all" || which = x in
  print_endline "Slice reproduction benchmarks (Anderson/Chase/Vahdat, OSDI 2000)";
  Printf.printf "mode: %s%s\n" which (if full then " (--full)" else "");
  let micro = if want "micro" then run_micro () else [] in
  let offload_points =
    if want "offload" then begin
      let points = E.Offload.compute ~scale:(if full then 1.0 else 0.25) () in
      E.Report.print (E.Offload.report_of points);
      points
    end
    else []
  in
  (* a partial target writes only the sections it ran, gated by the
     gates over those sections *)
  let sections =
    (if micro <> [] then [ ("micro", micro_section micro) ] else [])
    @ if offload_points <> [] then [ ("offload", offload_section offload_points) ] else []
  in
  if sections <> [] then begin
    let gates = List.filter (fun g -> List.mem_assoc (Gates.section g) sections) Gates.all in
    if not (write_artifact sections gates) then exit 1
  end;
  if want "table2" then E.Report.print (E.Table2.report ~scale:(if full then 0.4 else 0.08) ());
  if want "table3" then E.Report.print (E.Table3.report ~scale:(if full then 0.5 else 0.05) ());
  if want "fig3" then E.Report.print (E.Fig3.report ~scale:(if full then 0.1 else 0.03) ());
  if want "fig4" then E.Report.print (E.Fig4.report ~scale:(if full then 0.08 else 0.025) ());
  if want "fig5" || want "fig6" then begin
    let t =
      E.Fig5.compute
        ~scale:(if full then 0.02 else 0.006)
        ~points_per_curve:(if full then 5 else 3)
        ()
    in
    if want "fig5" then E.Report.print (E.Fig5.report_fig5 t);
    if want "fig6" then E.Report.print (E.Fig5.report_fig6 t)
  end;
  if want "ablation" then begin
    hash_balance_ablation ();
    threshold_ablation ~scale:(if full then 1.0 else 0.3);
    stripe_unit_ablation ~scale:(if full then 1.0 else 0.25)
  end;
  print_endline "\nbench: done"
