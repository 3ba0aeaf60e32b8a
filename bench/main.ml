(* Benchmark harness: Bechamel microbenchmarks of the µproxy hot paths,
   the metadata-offload exhibit with its artifact section, ablations of
   the design choices called out in DESIGN.md, and the CI smoke that
   writes BENCH.json. The paper's tables and figures run from
   bin/slice_sim; the windowed end-to-end measurements come from the
   perfbench library.

   Usage:
     dune exec bench/main.exe                 -- micro, offload, ablation
     dune exec bench/main.exe -- ablation     -- any of micro, offload, ablation
     dune exec bench/main.exe -- --smoke      -- BENCH.json + its gates *)

module E = Slice_experiments
module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Codec = Slice_nfs.Codec
module Packet = Slice_net.Packet
module Cksum = Slice_net.Cksum
module Routekey = Slice_nfs.Routekey
module Json = Slice_util.Json
module Engine = Slice_sim.Engine
module Bcache = Slice_disk.Bcache
module W = Perfbench.Workloads
module Rep = Perfbench.Rep
module Ledger = Perfbench.Ledger

(* ---- Bechamel microbenchmarks: the real code on the µproxy's critical
   path, one group per exhibit that leans on it ---- *)

let sample_fh =
  { Fh.file_id = 424242L; gen = 1; ftype = Fh.Reg; mirrored = false; attr_site = 0; cap = 0L }

let sample_call = Codec.encode_call ~xid:7 (Nfs.Lookup (sample_fh, "kern_descrip.c"))

let sample_pkt () =
  Packet.make ~src:3 ~dst:9 ~sport:1000 ~dport:2049 (Bytes.copy sample_call)

(* ---- the storage nodes' buffer cache, over a backend that never
   parks: a hit, or a miss with nothing behind it, runs outside a fiber ---- *)

let still_backend =
  {
    Bcache.demand_read = (fun ~obj:_ ~block:_ ~count:_ ~sequential:_ -> ());
    readahead = (fun ~obj:_ ~block:_ ~count:_ -> ());
    write_back = (fun ~obj:_ ~block:_ ~count:_ ~done_ -> done_ ());
    sync = (fun () -> ());
  }

(* [resident] blocks of object 1, read in descending order so no read
   looks sequential and prefetches past them, and room for [room] more. *)
let filled_cache ?(room = 4) resident =
  let c =
    Bcache.create (Engine.create ()) ~backend:still_backend
      ~capacity:((resident + room) * Bcache.block_size)
      ~name:"bench"
  in
  for b = resident - 1 downto 0 do
    Bcache.read c ~obj:1L ~block:b
  done;
  c

(* One op each: a read hit over 1024 resident blocks; a write hit on one
   of 256 dirty blocks (under the write-behind mark, so nothing
   flushes); and four random-read misses on object 2 — strides over 8
   blocks, no prefetch — then its invalidate, beside [resident] blocks
   of object 1. *)
let bcache_read_hit () =
  let c = filled_cache 1024 and k = ref 0 in
  fun () ->
    k := (!k + 17) land 1023;
    Bcache.read c ~obj:1L ~block:!k

let bcache_write_hit () =
  let c = filled_cache ~room:256 0 in
  for b = 0 to 255 do
    Bcache.write c ~obj:2L ~block:b
  done;
  let k = ref 0 in
  fun () ->
    k := (!k + 17) land 255;
    Bcache.write c ~obj:2L ~block:!k

let bcache_invalidate ~resident =
  let c = filled_cache resident in
  fun () ->
    Bcache.read c ~obj:2L ~block:1;
    Bcache.read c ~obj:2L ~block:10;
    Bcache.read c ~obj:2L ~block:20;
    Bcache.read c ~obj:2L ~block:30;
    Bcache.invalidate_object c 2L

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
      (* Table 2: the storage node's buffer cache under bulk I/O *)
      Test.make ~name:"storage/bcache-read-hit" (Staged.stage (bcache_read_hit ()));
      Test.make ~name:"storage/bcache-write-hit" (Staged.stage (bcache_write_hit ()));
      Test.make ~name:"storage/bcache-invalidate-4of8192"
        (Staged.stage (bcache_invalidate ~resident:8192));
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

(* ---- end to end through perfbench: each workload's measured window,
   setup excluded, and the installed µproxy driven directly ---- *)

(* The sub-seed every window row runs: perfbench's first for --seed 1. *)
let window_seed = 1009

(* One plain repetition per workload, and the same sub-seed once more:
   as in perfbench's own cycle, the repeat must reproduce the simulation
   and the minor words exactly. *)
let window_reps () =
  List.map
    (fun (wl : W.t) ->
      let r = Rep.run wl ~seed:window_seed Rep.plain in
      let again = Rep.run wl ~seed:window_seed Rep.plain in
      (wl.W.name, r, Rep.sim_key again = Rep.sim_key r && again.Rep.words = r.Rep.words))
    W.all

(* The engine queue's peak over the sfs window, from the heap tick that
   only a probed repetition runs. *)
let sfs_heap_peak () =
  let prof = Some (Perfbench.Prof.create ()) in
  snd (Option.get (Rep.run W.sfs ~seed:window_seed { Rep.plain with prof }).Rep.heap)

(* Host ns per packet through the µproxies: the whole ensemble's window
   cost spread over the traffic they intercepted and answered. *)
let host_ns_per_proxy_pkt r =
  Ledger.ratio (1e9 *. Rep.per_op r r.Rep.host_s) (Rep.layer r "proxy.pkts_per_op")

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

(* One row per workload, keyed by its name; sfs also carries the heap
   peak. *)
let window_section reps ~sfs_heap_peak =
  Json.Obj
    (List.map
       (fun (name, r, repeat_identical) ->
         let t = r.Rep.tally in
         ( name,
           Json.Obj
             ([
                ("ops", count t.W.completed);
                ("failed", count t.W.failed);
                ("errors", count (List.length r.Rep.errors));
                ("words_per_op", num (Rep.per_op r r.Rep.words));
                ("host_ns_per_proxy_pkt", num (host_ns_per_proxy_pkt r));
                ("repeat_identical", count (Bool.to_int repeat_identical));
              ]
             @ if name = W.sfs.W.name then [ ("heap_peak", num sfs_heap_peak) ] else []) ))
       reps)

(* Direct-drive µproxy cost, and how far it sits below the full sfs
   ensemble's cost per µproxy packet. *)
let packet_path_section (ns, words) ~full_system_ns =
  Json.Obj
    [
      ("words_per_packet", num words);
      ("ns_per_packet", num ns);
      ("ns_below_full_system", num (full_system_ns -. ns));
    ]

(* Minor words per op over [n] ops: exact, so the same code gives the
   same figure on every run and machine. *)
let words_per_op ~n op =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    op ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* CPU ns per op, the best of five batches. *)
let ns_per_op ~n op =
  let batch () =
    (* lint: D1 ok — real CPU time is the measurement here, not part of the simulated world *)
    let t0 = Sys.time () in
    for _ = 1 to n do
      op ()
    done;
    (* lint: D1 ok — real CPU time is the measurement here, not part of the simulated world *)
    (Sys.time () -. t0) *. 1e9 /. float_of_int n
  in
  List.fold_left Float.min infinity (List.init 5 (fun _ -> batch ()))

(* ---- the engine kernel, driven directly: words and ns per event at
   two queue sizes, and words per sleep and per suspension ---- *)

(* An engine holding [pending] events far past any measured one, so
   every measured event sifts up to the root and back down through a
   heap of that size. *)
let loaded_engine pending =
  let eng = Engine.create () in
  for i = 1 to pending do
    Engine.schedule_at eng (1e9 +. float_of_int i) ignore
  done;
  eng

(* One event scheduled and popped: with a delay, whose time the engine
   computes and so boxes; or at the clock itself, a time already boxed. *)
let schedule_pop eng () =
  Engine.schedule eng 1e-6 ignore;
  ignore (Engine.step eng)

let schedule_at_pop eng () =
  Engine.schedule_at eng (Engine.now eng) ignore;
  ignore (Engine.step eng)

(* Minor words per round trip of a fiber parked [n] times by [park],
   after a warm-up that fills the cell pool. *)
let fiber_words park =
  let eng = Engine.create () and n = 10_000 and words = ref Float.nan in
  Engine.spawn eng (fun () ->
      for _ = 1 to 256 do
        park eng
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        park eng
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int n);
  Engine.run eng;
  !words

(* A sleep, and the same wait through [suspend] with the thunk-wrapped
   waker its callers schedule. *)
let sleep_trip eng = Engine.sleep eng 1e-6
let suspend_trip eng = Engine.suspend (fun wake -> Engine.schedule eng 1e-6 (fun () -> wake ()))

type sim_cost = {
  words_64 : float;
  words_4096 : float;
  boxed_words_4096 : float;
  sleep_words : float;
  suspend_words : float;
  ns_64 : float;
  ns_4096 : float;
}

let sim_cost () =
  let e64 = loaded_engine 64 and e4096 = loaded_engine 4096 in
  let words eng op = words_per_op ~n:10_000 (op eng) in
  let ns eng = ns_per_op ~n:100_000 (schedule_pop eng) in
  {
    words_64 = words e64 schedule_pop;
    words_4096 = words e4096 schedule_pop;
    boxed_words_4096 = words e4096 schedule_at_pop;
    sleep_words = fiber_words sleep_trip;
    suspend_words = fiber_words suspend_trip;
    ns_64 = ns e64;
    ns_4096 = ns e4096;
  }

let sim_section c =
  Json.Obj
    [
      ("schedule_pop_words_64", num c.words_64);
      ("schedule_pop_words_4096", num c.words_4096);
      ("schedule_at_pop_words_4096", num c.boxed_words_4096);
      ("sleep_words", num c.sleep_words);
      ("suspend_words", num c.suspend_words);
      ("schedule_pop_ns_64", num c.ns_64);
      ("schedule_pop_ns_4096", num c.ns_4096);
      ("ns_ratio_4096_64", num (c.ns_4096 /. c.ns_64));
    ]

(* Words per read and write hit, and what invalidating a 4-block object
   costs beside 8192 resident blocks against beside 1024: a cache that
   scans every resident block to find one object's pays ~8x. *)
let bcache_cost () =
  ( words_per_op ~n:10_000 (bcache_read_hit ()),
    words_per_op ~n:10_000 (bcache_write_hit ()),
    ns_per_op ~n:5000 (bcache_invalidate ~resident:1024),
    ns_per_op ~n:5000 (bcache_invalidate ~resident:8192) )

let bcache_section (read_words, write_words, ns_1024, ns_8192) =
  Json.Obj
    [
      ("read_hit_words", num read_words);
      ("write_hit_words", num write_words);
      ("invalidate_ns_1024", num ns_1024);
      ("invalidate_ns_8192", num ns_8192);
      ("invalidate_ratio", num (ns_8192 /. ns_1024));
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

let targets = [ "micro"; "offload"; "ablation"; "all" ]
let usage = "usage: main.exe [--smoke] [micro] [offload] [ablation] [all]"

(* Whether --smoke was given, and the targets asked for ([all] when
   none). Any other argument is an error: a mistyped target must not
   fall back to running the whole suite. *)
let parse_args () =
  let args = List.tl (Array.to_list Sys.argv) in
  match List.find_opt (fun a -> a <> "--smoke" && not (List.mem a targets)) args with
  | Some bad ->
      Printf.eprintf "main.exe: unknown argument %s\n%s\n" bad usage;
      exit 2
  | None ->
      let which = List.filter (( <> ) "--smoke") args in
      (List.mem "--smoke" args, if which = [] then [ "all" ] else which)

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
  print_endline "bench smoke: perfbench windows (sfs, bulk, storm; one sub-seed, run twice)";
  let reps = window_reps () in
  List.iter
    (fun (name, r, same) ->
      Printf.printf
        "  window %-5s: %d ops, %d failed, %.1f words/op, %.0f host ns per µproxy packet%s\n" name
        r.Rep.tally.W.completed r.Rep.tally.W.failed (Rep.per_op r r.Rep.words)
        (host_ns_per_proxy_pkt r)
        (if same then "" else ", REPEAT DIFFERS"))
    reps;
  let heap_peak = sfs_heap_peak () in
  Printf.printf "  window sfs  : engine heap peak %.0f\n" heap_peak;
  let _, sfs, _ = List.find (fun (name, _, _) -> name = W.sfs.W.name) reps in
  print_endline "bench smoke: µproxy cost per packet (packet path, direct drive)";
  let ((nspp, wpp) as pp) = Perfbench.Direct.measure () in
  Printf.printf "  packet path: %.1f words/packet, %.0f ns/packet (budget %.0f)\n" wpp nspp
    Gates.packet_words_budget;
  print_endline "bench smoke: multi-tenant storm (FIFO vs per-tenant QoS)";
  let st = E.Storm.compute () in
  Printf.printf
    "  storm smoke: interactive p99 %.1f -> %.1f ms (bound %.0f), aggregate kept %.1f%%\n"
    (E.Storm.interactive_p99_ms st.E.Storm.st_off)
    (E.Storm.interactive_p99_ms st.E.Storm.st_on)
    st.E.Storm.st_p99_bound_ms
    (100.0 *. st.E.Storm.st_throughput_ratio);
  print_endline "bench smoke: storage buffer cache (hits, invalidate at 1024 vs 8192 blocks)";
  let ((read_words, write_words, ns_1024, ns_8192) as bc) = bcache_cost () in
  Printf.printf
    "  bcache: %.2f words/read hit, %.2f words/write hit, invalidate %.0f ns at 1024 blocks, %.0f at 8192\n"
    read_words write_words ns_1024 ns_8192;
  print_endline "bench smoke: engine kernel (schedule+pop at 64 and 4096 pending, sleep, suspend)";
  let sc_sim = sim_cost () in
  Printf.printf
    "  sim: %.2f / %.2f words per schedule+pop at 64 / 4096 pending (%.2f at a boxed time), \
     %.2f per sleep, %.2f per suspend; %.1f / %.1f ns (x%.2f)\n"
    sc_sim.words_64 sc_sim.words_4096 sc_sim.boxed_words_4096 sc_sim.sleep_words
    sc_sim.suspend_words sc_sim.ns_64 sc_sim.ns_4096 (sc_sim.ns_4096 /. sc_sim.ns_64);
  let sections =
    [
      ("micro", micro_section micro);
      ("offload", offload_section offload);
      ("scale", scale_section sc);
      ("failover", failover_section fo);
      ("window", window_section reps ~sfs_heap_peak:heap_peak);
      ("packet_path", packet_path_section pp ~full_system_ns:(host_ns_per_proxy_pkt sfs));
      ("storm", E.Storm.json_of st);
      ("bcache", bcache_section bc);
      ("sim", sim_section sc_sim);
    ]
  in
  if write_artifact sections Gates.all then print_endline "bench smoke: BENCH.json OK"
  else exit 1

let () =
  let smoke, which = parse_args () in
  if smoke then begin
    run_smoke ();
    print_endline "\nbench: done";
    exit 0
  end;
  let want x = List.mem "all" which || List.mem x which in
  print_endline "Slice reproduction benchmarks (Anderson/Chase/Vahdat, OSDI 2000)";
  Printf.printf "mode: %s\n" (String.concat " " which);
  let micro = if want "micro" then run_micro () else [] in
  let offload_points =
    if want "offload" then begin
      let points = E.Offload.compute ~scale:0.25 () in
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
  if want "ablation" then begin
    hash_balance_ablation ();
    threshold_ablation ~scale:0.3;
    stripe_unit_ablation ~scale:0.25
  end;
  print_endline "\nbench: done"
