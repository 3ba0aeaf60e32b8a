(* Unit tests of the benchmark's own helpers: frame-to-layer bucketing,
   the ten-samples-beyond rule for tail percentiles, and NaN-free
   arithmetic on windows in which nothing completed. *)

open Perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let bucketing () =
  let b = Prof.bucket_of_file in
  check "lib layer" (b (Some "lib/sim/engine.ml") = "sim");
  check "nested lib path" (b (Some "src/lib/core/proxy.ml") = "core");
  check "lib dir not a layer" (b (Some "lib/experiments/fig5.ml") = "other");
  check "stdlib hashtbl" (b (Some "hashtbl.ml") = "stdlib.hashtbl");
  check "stdlib hashtbl in dir" (b (Some "stdlib/hashtbl.ml") = "stdlib.hashtbl");
  check "stdlib other" (b (Some "list.ml") = "stdlib.other");
  check "bench frame" (b (Some "perfbench/workloads.ml") = "bench");
  check "unknown frame" (b (Some "vendor/fmt/fmt.ml") = "other");
  check "no debug info" (b None = "nodebug");
  let p = Prof.create () in
  (* sampler frames on top are skipped; self is the next frame *)
  Prof.record_files p [ Some Prof.own_file; Some "lib/sim/heap.ml"; Some "lib/sim/engine.ml" ];
  Prof.record_files p [ Some "hashtbl.ml"; Some "lib/core/proxy.ml"; Some "lib/sim/engine.ml" ];
  Prof.record_files p [ None; Some "lib/net/net.ml" ];
  Prof.record_files p [];
  check "samples counted" (p.Prof.samples = 4);
  check "self sim" (Prof.self_pct p "sim" = 25.0);
  check "self hashtbl" (Prof.self_pct p "stdlib.hashtbl" = 25.0);
  check "nodebug is its own share" (Prof.self_pct p "nodebug" = 50.0);
  check "inclusive sim counted once per stack" (Prof.incl_pct p "sim" = 50.0);
  check "inclusive core" (Prof.incl_pct p "core" = 25.0);
  let total = List.fold_left (fun a k -> a +. Prof.self_pct p k) 0.0 Prof.buckets in
  check "self shares sum to 100" (Float.abs (total -. 100.0) < 1e-9)

let tail_rule () =
  check "1000 samples carry p99" (Ledger.tail_ok ~n:1000 99.0);
  check "999 samples do not" (not (Ledger.tail_ok ~n:999 99.0));
  check "beyond p99 of 1000" (Ledger.beyond ~n:1000 99.0 = 10);
  check "p50 of 20" (Ledger.tail_ok ~n:20 50.0 && not (Ledger.tail_ok ~n:19 50.0));
  check "empty" (Ledger.beyond ~n:0 99.0 = 0 && not (Ledger.tail_ok ~n:0 50.0));
  let a = Ledger.sorted (Array.init 1000 (fun i -> float_of_int (1000 - i))) in
  check "interpolated p99" (Float.abs (Ledger.percentile a 99.0 -. 990.5) < 1e-9);
  check "interpolated p50" (Float.abs (Ledger.percentile a 50.0 -. 500.5) < 1e-9);
  (* ties: the tied value holds the middle of its share, and the
     percentile moves continuously off it *)
  let t = [| 1.0; 2.0; 2.0; 2.0; 3.0 |] in
  check "tie at its mid-point" (Ledger.percentile t 50.0 = 2.0);
  check "between ties" (Float.abs (Ledger.percentile t 60.0 -. 2.25) < 1e-9);
  check "clamped low" (Ledger.percentile t 1.0 = 1.0);
  check "clamped high" (Ledger.percentile t 100.0 = 3.0)

let zero_ops () =
  check "ratio by zero" (Ledger.ratio 5.0 0.0 = 0.0);
  check "ratio of nan" (Ledger.ratio Float.nan 2.0 = 0.0);
  check "percentile of nothing" (Ledger.percentile [||] 99.0 = 0.0);
  check "median of nothing" (Ledger.median [] = 0.0);
  check "median even" (Ledger.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  let counters = [ ("net.pkts", 0.0); ("storage.hits", 0.0); ("nic.0", 0.0); ("arm.0", 0.0) ] in
  let zeros = List.map (fun (k, _) -> (k, 0.0)) in
  let names =
    [
      "net.pkts"; "net.bytes"; "net.retx"; "proxy.pkts"; "proxy.meta_hits"; "proxy.meta_misses";
      "proxy.route_dir"; "proxy.route_smallfile"; "proxy.route_storage"; "proxy.defer";
      "proxy.p2c_probes"; "proxy.p2c_diverted"; "storage.hits"; "storage.misses"; "storage.ios";
      "coordinator.intents"; "disk.ops"; "dir.ops"; "dir.cross"; "dir.log_bytes";
      "smallfile.hits"; "smallfile.misses"; "smallfile.ops";
    ]
  in
  let all = zeros (List.map (fun n -> (n, 0.0)) names @ counters) in
  let m = Workloads.layer_metrics ~before:all ~after:all ~ops:0.0 ~window:1.0 in
  check "layer metrics present" (List.length m > 20);
  List.iter (fun (k, _, v) -> check ("finite " ^ k) (Float.is_finite v && v = 0.0)) m;
  (* the sfs file-set mix: quotas fill exactly and follow the weights *)
  let q = Workloads.quota 19 [| (33.0, 1); (21.0, 2); (46.0, 3) |] in
  check "quota fills" (Array.length q = 19);
  check "quota shares"
    (Array.fold_left (fun a v -> if v = 1 then a + 1 else a) 0 q = 6
    && Array.fold_left (fun a v -> if v = 3 then a + 1 else a) 0 q = 9)

let () =
  bucketing ();
  tail_rule ();
  zero_ops ();
  if !failures > 0 then exit 1;
  print_endline "perfbench helpers: ok"
