(* The repository benchmark: one workload per run, end-to-end metrics
   from untraced repetitions (--trace 0) or per-layer metrics from probed
   ones (--trace 1). The last line of standard output is the JSON result;
   the lines before it name every metric with its unit and sample count.

     perfbench/main.exe --workload sfs|bulk|storm --seed N --seconds S --trace 0|1

   A run repeats its workload over a fixed set of sub-seeds derived from
   --seed, so every simulated metric and every words_per_op repeats
   exactly for a seed. The run then keeps cycling the sub-seeds until
   --seconds of wall time have passed; each repeat must reproduce its
   first pass bit for bit. Host times take the median over all
   repetitions, scaled by a calibration kernel run beside each one (see
   calib.ml). *)

open Perfbench
module W = Workloads

let problems = ref []
let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt

let sub_seed seed j = (seed * 1009) + j

(* A result value: must be a finite number to be printed. *)
let metric name unit v =
  if not (Float.is_finite v) then problem "%s is not finite" name;
  (name, unit, if Float.is_finite v then v else 0.0)

let print_result ~attempted ~failed metrics =
  List.iter (fun (n, u, v) -> Printf.printf "  %-34s %.6g %s\n" n v u) metrics;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev !problems);
  let body =
    String.concat ", "
      (List.map
         (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!problems = []) attempted failed body

let sumi f reps = List.fold_left (fun a r -> a + f r.Rep.tally) 0 reps
let sumf f reps = List.fold_left (fun a r -> a +. f r) 0.0 reps

(* What a repetition keeps once it has passed its check: its host costs
   only, so the heap does not grow with the number of repetitions. *)
type cost = { us_per_op : float; setup : float; kernel : float }

let cost r = { us_per_op = Rep.host_us_per_op r; setup = r.Rep.setup_s; kernel = r.Rep.kernel }

(* A host time of a run: the median over its repetitions, each scaled
   from the host's speed beside it (its calibration kernel time) to the
   reference speed. *)
let scaled f costs =
  Ledger.median (List.map (fun c -> f c *. Ledger.ratio Calib.reference c.kernel) costs)

let check_errors reps =
  List.iter (fun r -> List.iter (fun e -> problem "%s" e) r.Rep.errors) reps

(* Run the fixed sub-seeds once each, then keep cycling them until the
   wall-clock budget is spent. Returns the first pass, the top heap size
   when it ended, and the costs of every rep. *)
let cycle wl ~seed ~seconds probes =
  let k = wl.W.reps in
  let start = Unix.gettimeofday () in
  let first =
    List.init k (fun j ->
        let r = Rep.run wl ~seed:(sub_seed seed j) probes in
        (r, Rep.sim_key r))
  in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let costs = ref (List.map (fun (r, _) -> cost r) first) and i = ref 0 in
  while Unix.gettimeofday () -. start < seconds do
    let j = !i mod k in
    let r0, key = List.nth first j in
    let r = Rep.run wl ~seed:(sub_seed seed j) probes in
    if Rep.sim_key r <> key then problem "sub-seed %d: repeat changed the simulation" j;
    if r.Rep.words <> r0.Rep.words then
      problem "sub-seed %d: words differ on repeat (%.0f vs %.0f)" j r.Rep.words r0.Rep.words;
    costs := cost r :: !costs;
    incr i
  done;
  (List.map fst first, top_heap_words, !costs)

let untraced wl ~seed ~seconds =
  let first, top_heap_words, all = cycle wl ~seed ~seconds Rep.plain in
  check_errors first;
  let completed = float_of_int (sumi (fun t -> t.W.completed) first) in
  let window = sumf (fun r -> r.Rep.window) first in
  let attempted = sumi (fun t -> t.W.attempted) first
  and failed = sumi (fun t -> t.W.failed) first in
  (* latency percentiles per sub-seed, then the median across them: one
     sub-seed with an unlucky burst moves a pooled tail, not this *)
  let lats = List.map (fun r -> Ledger.sorted (Ledger.to_array r.Rep.tally.W.lat)) first in
  let pct p = Ledger.median (List.map (fun l -> Ledger.percentile l p) lats) in
  let n = List.fold_left (fun a l -> min a (Array.length l)) max_int lats in
  if completed = 0.0 then problem "no op completed inside the window";
  if not (Ledger.tail_ok ~n 99.0) then
    problem "p99 of %d samples has only %d beyond it" n (Ledger.beyond ~n 99.0);
  if wl.W.name <> "storm" && failed > 0 then problem "%d of %d ops failed" failed attempted;
  Printf.printf
    "%s seed %d: %d reps over %d sub-seeds; fewest latency samples in a sub-seed %d (%d beyond \
     p99); %d attempted, %d failed, fail_frac %.6g\n"
    wl.W.name seed (List.length all) (List.length first) n (Ledger.beyond ~n 99.0) attempted
    failed
    (Ledger.ratio (float_of_int failed) (float_of_int attempted));
  Printf.printf "host: median %.6g us/op unscaled, calibration kernel median %.6g ms\n"
    (Ledger.median (List.map (fun c -> c.us_per_op) all))
    (1e3 *. Ledger.median (List.map (fun c -> c.kernel) all));
  print_result ~attempted ~failed
    [
      metric "ops_s" "ops/s" (Ledger.ratio completed window);
      metric "mb_s" "MB/s"
        (Ledger.ratio (float_of_int (sumi (fun t -> t.W.bytes) first)) (1e6 *. window));
      metric "lat_p50_ms" "ms" (1e3 *. pct 50.0);
      metric "lat_p99_ms" "ms" (1e3 *. pct 99.0);
      metric "host_us_per_op" "us" (scaled (fun c -> c.us_per_op) all);
      metric "words_per_op" "words" (Ledger.ratio (sumf (fun r -> r.Rep.words) first) completed);
      metric "heap_peak_mb" "MB" (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6);
      metric "setup_s" "s" (scaled (fun c -> c.setup) all);
    ]

let traced wl ~seed ~seconds =
  let start = Unix.gettimeofday () in
  let k = wl.W.reps in
  let prof = Prof.create () in
  (* an untraced and a traced repetition of one sub-seed, back to back;
     the tracing overhead is the median of their host-time ratios *)
  let pair j =
    let p = Rep.run wl ~seed:(sub_seed seed j) Rep.plain in
    let t = Rep.run wl ~seed:(sub_seed seed j) { Rep.plain with tracer = true } in
    (p, t, Ledger.ratio (Rep.host_us_per_op t) (Rep.host_us_per_op p))
  in
  (* every sub-seed once untraced, for its reference simulation, once
     traced and once with the heap tick and the sampler; both probed
     repetitions must reproduce the reference *)
  let keys = Array.make k "" and ratios = ref [] and hops = ref [] in
  let check j what r =
    if Rep.sim_key r <> keys.(j) then problem "sub-seed %d: %s changed the simulation" j what
  in
  let probed =
    List.init k (fun j ->
        let p, t, ratio = pair j in
        keys.(j) <- Rep.sim_key p;
        check j "the tracer" t;
        let r = Rep.run wl ~seed:(sub_seed seed j) { Rep.plain with prof = Some prof } in
        check j "the heap tick or the sampler" r;
        check_errors [ p; t; r ];
        ratios := ratio :: !ratios;
        hops := t.Rep.hops :: !hops;
        r)
  in
  (* more pairs, cycling the sub-seeds, until the time is spent *)
  let i = ref 0 in
  while Unix.gettimeofday () -. start < seconds do
    let j = !i mod k in
    let p, t, ratio = pair j in
    check j "a repeat" p;
    check j "the tracer" t;
    ratios := ratio :: !ratios;
    incr i
  done;
  let direct = List.init 5 (fun _ -> Direct.measure ()) in
  let med f l = Ledger.median (List.map f l) in
  let heap f = med (fun r -> f (Option.get r.Rep.heap)) probed in
  let attempted = sumi (fun t -> t.W.attempted) probed
  and failed = sumi (fun t -> t.W.failed) probed in
  Printf.printf "%s seed %d: %d probed reps, %d overhead pairs, %d profile samples\n" wl.W.name
    seed k (List.length !ratios) prof.Prof.samples;
  let counted =
    List.map (fun (n, u, _) -> metric n u (med (fun r -> Rep.layer r n) probed))
      (List.hd probed).Rep.layers
  in
  print_result ~attempted ~failed
    ([
       metric "sim.heap_mean" "events" (heap fst);
       metric "sim.heap_peak" "events" (heap snd);
     ]
    @ counted
    @ [
        metric "storage.queue_depth_mean" "s" (med (fun r -> r.Rep.queue_depth) probed);
        metric "proxy.direct_ns_per_pkt" "ns" (med fst direct);
        metric "proxy.direct_words_per_pkt" "words" (med snd direct);
      ]
    @ List.map
        (fun (n, _) -> metric n "ms" (med (fun r -> List.assoc n r.Rep.qos) probed))
        (List.hd probed).Rep.qos
    @ List.map (fun b -> metric (b ^ ".self_pct") "%" (Prof.self_pct prof b)) Prof.layers
    @ List.map (fun b -> metric (b ^ ".incl_pct") "%" (Prof.incl_pct prof b)) Prof.layers
    @ List.map
        (fun b ->
          let name = if String.contains b '.' then b ^ "_self_pct" else b ^ ".self_pct" in
          metric name "%" (Prof.self_pct prof b))
        Prof.extra_buckets
    @ [ metric "prof.samples" "count" (float_of_int prof.Prof.samples) ]
    @ List.map
        (fun (n, _) ->
          metric n
            (if n = "trace.spans_per_op" then "count/op" else "ms")
            (Ledger.median (List.map (List.assoc n) !hops)))
        (List.hd !hops)
    @ [ metric "trace.overhead_pct" "%" (100.0 *. (Ledger.median !ratios -. 1.0)) ])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "sfs|bulk|storm");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S wall-clock seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  match List.find_opt (fun w -> w.W.name = !workload) W.all with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some wl ->
      let seconds = float_of_int !seconds in
      if !trace = 0 then untraced wl ~seed:!seed ~seconds else traced wl ~seed:!seed ~seconds
