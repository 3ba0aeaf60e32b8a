module Json = Slice_util.Json

type op = Lt | Le | Gt | Ge | Eq
type gate = { name : string; path : string; op : op; bound : float }

let op_name = function Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge" | Eq -> "eq"

let op_of_name s = List.find_opt (fun op -> op_name op = s) [ Lt; Le; Gt; Ge; Eq ]

let holds op v bound =
  match op with
  | Lt -> v < bound
  | Le -> v <= bound
  | Gt -> v > bound
  | Ge -> v >= bound
  | Eq -> v = bound

(* Allocation ratchet on the µproxy packet path, and the share of FIFO
   throughput the QoS storm must keep. *)
let packet_words_budget = 64.0
let storm_throughput_floor = 0.95

(* Minor words per completed op in each perfbench workload's window, at
   the measured value (1963.6, 1298.2 and 1112.9) plus 2 %: a ratchet
   that later changes only tighten. A workload without a bound fails its
   gate. *)
let words_ratchet = [ ("sfs", 2002.8); ("bulk", 1324.1); ("storm", 1135.1) ]

(* Ceiling on the engine queue's peak over the sfs window: 125 events
   measured, plus a 100 % margin. Dead retransmit timers held it near
   27 000 on this workload (DESIGN.md §15). *)
let sfs_heap_peak_bound = 250.0

(* Workloads whose windows may fail ops by design: storm's admission
   control sheds arrivals. *)
let may_fail = [ "storm" ]

(* Buffer-cache hits allocate nothing since each object indexes its own
   blocks (the tuple-keyed Lru before it spent 11 words per read hit and
   15 per write hit): the budget is that 0 plus a 1-word margin, under
   the 2 words of the smallest allocation. Invalidating a 4-block object
   beside 8192 resident blocks may cost at most 4x what it does beside
   1024; the whole-cache scan it replaced measured 6.7x. *)
let bcache_hit_words_budget = 1.0
let bcache_invalidate_ratio_bound = 4.0

(* The engine kernel's minor words, exact and the same on every run, so
   each is a ratchet at its measured value: 2 per schedule+pop with a
   computed delay (the boxed event time) at 64 and at 4096 pending
   events, 0 at a time already boxed, 4 per sleep (the boxed wake-up
   time and the fiber's continuation; 29 with the closure-built sleep
   before the flat heap) and 28 per suspension with a thunk-wrapped
   waker. *)
let sim_words =
  [
    ("schedule_pop_words_64", 2.0);
    ("schedule_pop_words_4096", 2.0);
    ("schedule_at_pop_words_4096", 0.0);
    ("sleep_words", 4.0);
    ("suspend_words", 28.0);
  ]

(* Host ns per schedule+pop at 4096 pending events over that at 64: the
   sifts' depth doubles, and the ratio measured 1.6 to 2.4 on a shared
   2-CPU host. A queue whose cost grew linearly would read about 64. *)
let sim_ns_ratio_bound = 4.0

let gate name path op bound = { name; path; op; bound }

let sim_gates =
  List.map
    (fun (field, bound) ->
      let path = "sim." ^ field in
      gate path path Le bound)
    sim_words
  @ [
      gate "sim.schedule_pop_ns_64" "sim.schedule_pop_ns_64" Gt 0.0;
      gate "sim.ns_ratio_4096_64" "sim.ns_ratio_4096_64" Le sim_ns_ratio_bound;
    ]

(* The gates over each perfbench workload's window row, each named after
   its path. *)
let window_gates =
  List.concat_map
    (fun (wl : Perfbench.Workloads.t) ->
      let name = wl.Perfbench.Workloads.name in
      let w field op bound =
        let path = Printf.sprintf "window.%s.%s" name field in
        gate path path op bound
      in
      [
        w "ops" Gt 0.0;
        w "errors" Eq 0.0;
        w "words_per_op" Le (Option.value ~default:0.0 (List.assoc_opt name words_ratchet));
        w "host_ns_per_proxy_pkt" Gt 0.0;
        w "repeat_identical" Eq 1.0;
      ]
      @ (if List.mem name may_fail then [] else [ w "failed" Eq 0.0 ])
      @ if name = Perfbench.Workloads.sfs.name then [ w "heap_peak" Le sfs_heap_peak_bound ] else [])
    Perfbench.Workloads.all

let all =
  let g = gate in
  [
    g "micro.nonempty" "micro.#" Gt 0.0;
    g "micro.named" "micro.*.name.#" Gt 0.0;
    g "micro.ns_per_op" "micro.*.ns_per_op" Ge 0.0;
    g "micro.words_per_op" "micro.*.words_per_op" Ge 0.0;
    g "offload.nonempty" "offload.#" Gt 0.0;
    g "offload.named" "offload.*.name.#" Gt 0.0;
    g "offload.ops_per_sec" "offload.*.ops_per_sec" Ge 0.0;
    g "offload.p50_ms" "offload.*.p50_ms" Ge 0.0;
    g "offload.p95_ms" "offload.*.p95_ms" Ge 0.0;
    g "offload.p99_ms" "offload.*.p99_ms" Ge 0.0;
    g "offload.dir_ops" "offload.*.dir_ops" Ge 0.0;
    g "scale.phases" "scale.phases.#" Ge 2.0;
    g "scale.phase_ops" "scale.phases.*.ops" Ge 0.0;
    g "scale.throughput_rises" "scale.phase_rises_ops_s.*" Gt 0.0;
    g "scale.audit_lost" "scale.audit_lost" Eq 0.0;
    g "scale.ownership_violations" "scale.audit_ownership_violations" Eq 0.0;
    g "scale.sites_moved" "scale.sites_moved" Gt 0.0;
    g "scale.bytes_copied" "scale.bytes_copied" Ge 0.0;
    g "failover.takeovers" "failover.takeovers.#" Eq 3.0;
    g "failover.class_named" "failover.takeovers.*.class.#" Gt 0.0;
    g "failover.detect" "failover.takeovers.*.detect_ms" Gt 0.0;
    g "failover.mttr_after_detect" "failover.takeovers.*.mttr_after_detect_ms" Ge 0.0;
    g "failover.sites" "failover.takeovers.*.sites" Gt 0.0;
    g "failover.requests_lost" "failover.requests_lost" Eq 0.0;
    g "failover.audit_checked" "failover.audit_checked" Gt 0.0;
    g "failover.ownership_violations" "failover.audit_ownership_violations" Eq 0.0;
    g "failover.zombies_probed" "failover.zombies_probed" Gt 0.0;
    g "failover.zombies_unfenced" "failover.zombies_unfenced" Eq 0.0;
  ]
  @ window_gates
  @ [
    g "packet_path.words_per_packet" "packet_path.words_per_packet" Gt 0.0;
    g "packet_path.ns_per_packet" "packet_path.ns_per_packet" Gt 0.0;
    g "packet_path.words_budget" "packet_path.words_per_packet" Lt packet_words_budget;
    g "packet_path.not_slower_than_full" "packet_path.ns_below_full_system" Gt 0.0;
    g "storm.p99_bound" "storm.interactive_p99_on_ms" Le
      Slice_experiments.Storm.default_p99_bound_ms;
    g "storm.p99_on_positive" "storm.interactive_p99_on_ms" Gt 0.0;
    g "storm.p99_off_positive" "storm.interactive_p99_off_ms" Gt 0.0;
    g "storm.throughput_ratio" "storm.throughput_ratio" Ge storm_throughput_floor;
    g "storm.qos_off_ops" "storm.qos_off.total_ops" Gt 0.0;
    g "storm.qos_on_ops" "storm.qos_on.total_ops" Gt 0.0;
    g "storm.admission_engaged" "storm.qos_on.admission_deferrals" Gt 0.0;
    g "storm.p2c_engaged" "storm.qos_on.p2c_probes" Gt 0.0;
    g "bcache.read_hit_words" "bcache.read_hit_words" Le bcache_hit_words_budget;
    g "bcache.write_hit_words" "bcache.write_hit_words" Le bcache_hit_words_budget;
    g "bcache.invalidate_ratio" "bcache.invalidate_ratio" Le bcache_invalidate_ratio_bound;
  ]
  @ sim_gates

let section g = List.hd (String.split_on_char '.' g.path)

let to_json g =
  Json.Obj
    [
      ("name", Json.Str g.name);
      ("path", Json.Str g.path);
      ("op", Json.Str (op_name g.op));
      ("bound", Json.Num g.bound);
    ]

let of_json j =
  match
    (Json.member "name" j, Json.member "path" j, Json.member "op" j, Json.member "bound" j)
  with
  | Some (Json.Str name), Some (Json.Str path), Some (Json.Str op), Some (Json.Num bound) ->
      Option.map (fun op -> { name; path; op; bound }) (op_of_name op)
  | _ -> None

exception Missing

(* Every value the path reaches; [] if any step is missing. *)
let resolve path j =
  let step nodes seg =
    List.concat_map
      (fun node ->
        match (seg, node) with
        | "*", Json.Arr items -> items
        | "#", Json.Arr items -> [ Json.Num (float_of_int (List.length items)) ]
        | "#", Json.Str s -> [ Json.Num (float_of_int (String.length s)) ]
        | key, node -> (
            match Json.member key node with Some v -> [ v ] | None -> raise Missing))
      nodes
  in
  try List.fold_left step [ j ] (String.split_on_char '.' path) with Missing -> []

let violation g j =
  match resolve g.path j with
  | [] -> Some "missing"
  | values ->
      List.find_map
        (function
          | Json.Num v when holds g.op v g.bound -> None
          | Json.Num v -> Some (Printf.sprintf "%g not %s %g" v (op_name g.op) g.bound)
          | _ -> Some "not a number")
        values

let check j =
  match Json.member "gates" j with
  | Some (Json.Arr (_ :: _ as gates)) ->
      List.filter_map
        (fun gj ->
          match of_json gj with
          | None -> Some ("malformed gate: " ^ Json.to_string gj)
          | Some g ->
              Option.map
                (fun why -> Printf.sprintf "gate %s (%s): %s" g.name g.path why)
                (violation g j))
        gates
  | _ -> [ "no gates declared" ]
