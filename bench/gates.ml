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

(* Allocation ratchet on the µproxy packet path, the full-ensemble
   SPECsfs figure recorded before it, and the share of FIFO throughput
   the QoS storm must keep. *)
let packet_words_budget = 64.0
let specsfs_baseline_words = 5963.0
let storm_throughput_floor = 0.95

(* Ceiling on the engine queue's peak during the SPECsfs run: 60 events
   measured once answered calls cancel their retransmit timers, plus a
   100 % margin. Dead timers held it at 10 895. *)
let specsfs_heap_peak_bound = 120.0

let all =
  let g name path op bound = { name; path; op; bound } in
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
    g "specsfs_full.packets" "specsfs_full.packets" Gt 0.0;
    g "specsfs_full.delivered_ops_s" "specsfs_full.delivered_ops_s" Ge 0.0;
    g "specsfs_full.ops_measured" "specsfs_full.ops_measured" Ge 0.0;
    g "specsfs_full.words_per_packet" "specsfs_full.words_per_packet" Ge 0.0;
    g "specsfs_full.ns_per_packet" "specsfs_full.ns_per_packet" Ge 0.0;
    g "specsfs_full.under_baseline" "specsfs_full.words_per_packet" Lt specsfs_baseline_words;
    g "specsfs_full.engine_heap_peak" "specsfs_full.engine_heap_peak" Le specsfs_heap_peak_bound;
    g "packet_path.packets" "packet_path.packets" Gt 0.0;
    g "packet_path.words_per_packet" "packet_path.words_per_packet" Ge 0.0;
    g "packet_path.ns_per_packet" "packet_path.ns_per_packet" Ge 0.0;
    g "packet_path.words_budget" "packet_path.words_per_packet" Lt packet_words_budget;
    g "packet_path.not_slower_than_full" "packet_path.ns_below_full_system" Ge 0.0;
    g "storm.p99_bound" "storm.interactive_p99_on_ms" Le
      Slice_experiments.Storm.default_p99_bound_ms;
    g "storm.p99_on_positive" "storm.interactive_p99_on_ms" Gt 0.0;
    g "storm.p99_off_positive" "storm.interactive_p99_off_ms" Gt 0.0;
    g "storm.throughput_ratio" "storm.throughput_ratio" Ge storm_throughput_floor;
    g "storm.qos_off_ops" "storm.qos_off.total_ops" Gt 0.0;
    g "storm.qos_on_ops" "storm.qos_on.total_ops" Gt 0.0;
    g "storm.admission_engaged" "storm.qos_on.admission_deferrals" Gt 0.0;
    g "storm.p2c_engaged" "storm.qos_on.p2c_probes" Gt 0.0;
  ]

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
