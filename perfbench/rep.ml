(* One repetition: build a workload's ensemble from a seed, set it up,
   and measure its window. Probes are opt-in — the span tracer, and the
   SIGPROF sampler together with the heap tick — and none of them may
   change a simulated number; [sim_key] is what the runs compare to prove
   that. *)

module W = Workloads
module Engine = Slice_sim.Engine
module Ensemble = Slice.Ensemble

(* With [prof], the sampler runs over the window and the heap tick
   samples the engine queue and storage backlog. *)
type probes = { tracer : bool; prof : Prof.t option }

let plain = { tracer = false; prof = None }

type t = {
  setup_s : float;  (** host CPU seconds to build the ensemble, clients and file set *)
  host_s : float;  (** host CPU seconds inside the window *)
  kernel : float;  (** CPU seconds of a calibration kernel run beside the rep *)
  words : float;  (** minor words allocated inside the window *)
  window : float;  (** simulated seconds *)
  tally : W.tally;
  layers : (string * string * float) list;  (** counter-derived per-layer metrics, with units *)
  heap : (float * float) option;  (** engine queue mean and peak, from the tick *)
  queue_depth : float;  (** mean storage-node backlog, from the tick *)
  qos : (string * float) list;
  hops : (string * float) list;  (** with the tracer only *)
  dump : string;  (** window-end metrics registry *)
  errors : string list;
}

(* Every simulated output of a repetition, as one string. *)
let sim_key r =
  let t = r.tally in
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d %d %d %d %h\n" t.W.attempted t.W.failed t.W.completed t.W.bytes r.window;
  Array.iter (fun v -> Printf.bprintf b "%h " v) (Ledger.to_array t.W.lat);
  List.iter (fun (k, _, v) -> Printf.bprintf b "\n%s %h" k v) r.layers;
  List.iter (fun (k, v) -> Printf.bprintf b "\n%s %h" k v) r.qos;
  Buffer.add_string b r.dump;
  Digest.to_hex (Digest.string (Buffer.contents b))

let tick_interval = 0.0005

let run (wl : W.t) ~seed probes =
  let k0 = Calib.measure () in
  let c0 = Sys.time () in
  let inst = wl.W.build ~seed ~tracer:probes.tracer in
  let ticking = probes.prof <> None in
  let eng = Ensemble.engine inst.W.ens in
  let gauges = W.gauges inst in
  let tally =
    { W.attempted = 0; failed = 0; completed = 0; bytes = 0; lat = Ledger.samples () }
  in
  let setup_s = ref 0.0 and errors = ref [] and dump = ref "" in
  let before = ref [] and after = ref [] in
  let h0 = ref 0.0 and h1 = ref 0.0 and w0 = ref 0.0 and w1 = ref 0.0 in
  let heap_sum = ref 0.0 and heap_peak = ref 0 and qd_sum = ref 0.0 and ticks = ref 0 in
  let storage = Ensemble.storage inst.W.ens in
  Engine.spawn eng (fun () ->
      let drive = inst.W.prepare () in
      setup_s := Sys.time () -. c0;
      let t0 = Engine.now eng in
      let w =
        { W.eng; t_measure = t0 +. wl.W.warmup; t_end = t0 +. wl.W.warmup +. wl.W.duration; tally }
      in
      Engine.schedule_at eng w.W.t_measure (fun () ->
          before := W.read gauges;
          Option.iter Prof.start probes.prof;
          w0 := Gc.minor_words ();
          h0 := Sys.time ());
      Engine.schedule_at eng w.W.t_end (fun () ->
          h1 := Sys.time ();
          w1 := Gc.minor_words ();
          if probes.prof <> None then Prof.stop ();
          after := W.read gauges;
          dump := W.dump_without_trace inst.W.ens);
      if ticking then begin
        let rec tick () =
          if Engine.now eng < w.W.t_end then begin
            let n = Engine.pending eng in
            heap_sum := !heap_sum +. float_of_int n;
            heap_peak := max !heap_peak n;
            qd_sum :=
              !qd_sum
              +. Ledger.ratio
                   (Array.fold_left (fun a s -> a +. Slice_storage.Obsd.queue_depth s) 0.0 storage)
                   (float_of_int (Array.length storage));
            incr ticks;
            Engine.schedule eng tick_interval tick
          end
        in
        Engine.schedule_at eng w.W.t_measure tick
      end;
      errors := drive w);
  Ensemble.run inst.W.ens;
  let hops =
    match Ensemble.trace inst.W.ens with
    | Some tr when probes.tracer -> W.hop_metrics tr
    | _ -> []
  in
  ignore (Ensemble.drain_traces ());
  let k1 = Calib.measure () in
  let ticks = float_of_int !ticks in
  {
    setup_s = !setup_s;
    host_s = !h1 -. !h0;
    kernel = (k0 +. k1) /. 2.0;
    words = !w1 -. !w0;
    window = wl.W.duration;
    tally;
    layers =
      W.layer_metrics ~before:!before ~after:!after ~ops:(float_of_int tally.W.completed)
        ~window:wl.W.duration;
    heap =
      (if ticking then Some (Ledger.ratio !heap_sum ticks, float_of_int !heap_peak) else None);
    queue_depth = Ledger.ratio !qd_sum ticks;
    qos = W.qos_metrics inst.W.ens;
    hops;
    dump = !dump;
    errors = !errors;
  }

let layer r name =
  match List.find_opt (fun (n, _, _) -> n = name) r.layers with Some (_, _, v) -> v | None -> 0.0

let per_op r v = Ledger.ratio v (float_of_int r.tally.W.completed)
let host_us_per_op r = 1e6 *. per_op r r.host_s
