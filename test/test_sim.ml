open Helpers
module Engine = Slice_sim.Engine
module Resource = Slice_sim.Resource
module Fiber = Slice_sim.Fiber

let event_ordering () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng 2.0 (fun () -> log := "c" :: !log);
  Engine.schedule eng 1.0 (fun () -> log := "a" :: !log);
  Engine.schedule eng 1.0 (fun () -> log := "b" :: !log) (* FIFO at same time *);
  Engine.run eng;
  check_bool "order a,b,c" true (List.rev !log = [ "a"; "b"; "c" ]);
  check_float "clock at last event" 2.0 (Engine.now eng)

(* The engine's inlined event heap against a list model: events fire in
   (time, schedule order), through both the batched [run] and [step]. *)
let drains_in_time_then_fifo_order =
  qtest "engine drains in (time, schedule order)"
    QCheck2.Gen.(list (int_range 0 20))
    (fun delays ->
      let eng = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i d -> Engine.schedule eng (0.5 *. float_of_int d) (fun () -> fired := i :: !fired))
        delays;
      Engine.run eng;
      let by_time = List.stable_sort (fun (a, _) (b, _) -> compare a b) in
      let expected = List.map snd (by_time (List.mapi (fun i d -> (d, i)) delays)) in
      List.rev !fired = expected)

let min_under_interleaved_schedule_step =
  qtest "engine min under interleaved schedule/step"
    QCheck2.Gen.(list (pair bool (int_range 0 20)))
    (fun ops ->
      let eng = Engine.create () in
      let model = ref [] and seq = ref 0 and last = ref None in
      List.for_all
        (fun (is_schedule, d) ->
          if is_schedule then begin
            let key = (Engine.now eng +. (0.5 *. float_of_int d), !seq) in
            incr seq;
            Engine.schedule eng (0.5 *. float_of_int d) (fun () -> last := Some key);
            model := List.sort compare (key :: !model);
            true
          end
          else
            match (Engine.step eng, !model) with
            | false, [] -> true
            | true, m :: rest ->
                model := rest;
                !last = Some m && Engine.now eng = fst m
            | _ -> false)
        ops)

(* Timers, cancellation and sleeps against a sorted-list model: random
   interleavings of schedule, timer, cancel (of any handle ever made —
   live, fired, already cancelled, or naming a recycled cell), fibers
   that sleep, and step. A napping fiber logs its label when it starts
   and its negated label when it wakes; its wake-up draws its place in
   the order when it falls asleep, and a zero sleep returns at once.
   Survivors fire in exact (time, seq) order, cancelled events never
   fire, and [pending] counts exactly the live events throughout. *)
type timer_op = Sched of int | Arm of int | Cancel of int | Nap of int | Step

let timer_cancel_matches_model =
  let op =
    QCheck2.Gen.(
      frequency
        [
          (2, map (fun d -> Sched d) (int_range 0 20));
          (3, map (fun d -> Arm d) (int_range 0 20));
          (3, map (fun k -> Cancel k) (int_range 0 1000));
          (2, map (fun d -> Nap d) (int_range 0 20));
          (3, pure Step);
        ])
  in
  qtest "timer/cancel against a sorted-list model" ~count:300
    QCheck2.Gen.(list_size (int_range 0 120) op)
    (fun ops ->
      let eng = Engine.create () in
      let log = ref [] and expected = ref [] in
      (* live: ((time, seq), label), sorted; naps: label -> sleep *)
      let live = ref [] and naps = Hashtbl.create 8 in
      let handles = ref [||] and seq = ref 0 and label = ref 0 in
      let enqueue time lbl =
        live := List.merge compare [ ((time, !seq), lbl) ] !live;
        incr seq
      in
      let add d =
        incr label;
        let lbl = !label in
        enqueue (Engine.now eng +. (0.5 *. float_of_int d)) lbl;
        (lbl, 0.5 *. float_of_int d, fun () -> log := lbl :: !log)
      in
      (* What the model's earliest event does when it fires at [time]. *)
      let fire_model ((time, _), lbl) =
        expected := lbl :: !expected;
        match Hashtbl.find_opt naps lbl with
        | Some d when d > 0.0 -> enqueue (time +. d) (-lbl)
        | Some _ -> expected := -lbl :: !expected
        | None -> ()
      in
      let ok =
        List.for_all
          (fun op ->
            let step_ok =
              match op with
              | Sched d ->
                  let _, delay, fn = add d in
                  Engine.schedule eng delay fn;
                  true
              | Arm d ->
                  let lbl, delay, fn = add d in
                  handles := Array.append !handles [| (Engine.timer eng delay fn, lbl) |];
                  true
              | Cancel k ->
                  let n = Array.length !handles in
                  if n > 0 then begin
                    let h, lbl = !handles.(k mod n) in
                    Engine.cancel eng h;
                    live := List.filter (fun (_, l) -> l <> lbl) !live
                  end;
                  true
              | Nap d ->
                  let lbl, _, _ = add 0 in
                  let sleep = 0.5 *. float_of_int d in
                  Hashtbl.replace naps lbl sleep;
                  Engine.spawn eng (fun () ->
                      log := lbl :: !log;
                      Engine.sleep eng sleep;
                      log := -lbl :: !log);
                  true
              | Step -> (
                  match (Engine.step eng, !live) with
                  | false, [] -> true
                  | true, (((time, _), _) as m) :: rest ->
                      live := rest;
                      fire_model m;
                      Engine.now eng = time && !log = !expected
                  | _ -> false)
            in
            step_ok && Engine.pending eng = List.length !live)
          ops
      in
      let rec drain () =
        match !live with
        | [] -> ()
        | m :: rest ->
            live := rest;
            fire_model m;
            drain ()
      in
      Engine.run eng;
      drain ();
      ok && !log = !expected && Engine.pending eng = 0)

let cancel_stale_handles () =
  let eng = Engine.create () in
  let fired = ref [] in
  let note x () = fired := x :: !fired in
  Engine.cancel eng Engine.no_timer;
  let a = Engine.timer eng 1.0 (note "a") in
  check_bool "step fires a" true (Engine.step eng);
  (* the fired cell is recycled for b: a's stale handle must miss it *)
  let b = Engine.timer eng 1.0 (note "b") in
  Engine.cancel eng a;
  check_int "b survives a's stale handle" 1 (Engine.pending eng);
  Engine.cancel eng b;
  Engine.cancel eng b;
  check_int "b cancelled once" 0 (Engine.pending eng);
  let c = Engine.timer eng 1.0 (note "c") in
  Engine.cancel eng b;
  Engine.cancel eng Engine.no_timer;
  check_int "c survives b's stale handle" 1 (Engine.pending eng);
  Engine.run eng;
  Engine.cancel eng c;
  check_bool "a then c fired" true (List.rev !fired = [ "a"; "c" ]);
  check_float "clock at c" 2.0 (Engine.now eng)

(* Cancelling from the middle of a deep heap keeps the rest in order. *)
let cancel_inside_heap () =
  let eng = Engine.create () in
  let fired = ref [] in
  let hs =
    Array.init 64 (fun i ->
        let d = float_of_int ((i * 37) mod 64) in
        Engine.timer eng d (fun () -> fired := i :: !fired))
  in
  Array.iteri (fun i h -> if i mod 3 = 0 then Engine.cancel eng h) hs;
  check_int "two thirds left" 42 (Engine.pending eng);
  Engine.run eng;
  let expected =
    List.init 64 Fun.id
    |> List.filter (fun i -> i mod 3 <> 0)
    |> List.sort (fun a b -> compare ((a * 37) mod 64) ((b * 37) mod 64))
  in
  check_bool "survivors in time order" true (List.rev !fired = expected)

let schedule_past_clamps () =
  let eng = Engine.create () in
  let at = ref 0.0 in
  Engine.schedule eng 1.0 (fun () ->
      Engine.schedule_at eng 0.5 (fun () -> at := Engine.now eng));
  Engine.run eng;
  check_float "clamped to now" 1.0 !at

let run_until () =
  let eng = Engine.create () in
  let fired = ref 0 in
  Engine.schedule eng 1.0 (fun () -> incr fired);
  Engine.schedule eng 5.0 (fun () -> incr fired);
  Engine.run ~until:2.0 eng;
  check_int "only first fired" 1 !fired;
  check_int "one pending" 1 (Engine.pending eng);
  Engine.run eng;
  check_int "all fired" 2 !fired

let run_until_advances_clock () =
  (* [run ~until] leaves the clock at [until] even when the event queue
     drains first — periodic measurement loops rely on this so a quiet
     window still advances simulated time. *)
  let eng = Engine.create () in
  Engine.run ~until:3.0 eng;
  check_float "empty queue still advances" 3.0 (Engine.now eng);
  Engine.schedule eng 1.0 (fun () -> ());
  Engine.run ~until:10.0 eng;
  check_float "past last event" 10.0 (Engine.now eng);
  Engine.run ~until:5.0 eng;
  check_float "never moves backwards" 10.0 (Engine.now eng)

let sleep_advances_time () =
  let elapsed =
    run_fiber (fun eng ->
        let t0 = Engine.now eng in
        Engine.sleep eng 1.5;
        Engine.sleep eng 0.25;
        Engine.now eng -. t0)
  in
  check_float "slept 1.75" 1.75 elapsed

let suspend_resumes_with_value () =
  let v =
    run_fiber (fun eng ->
        Engine.suspend (fun wake -> Engine.schedule eng 1.0 (fun () -> wake 42)))
  in
  check_int "resumed value" 42 v

let waker_idempotent () =
  let v =
    run_fiber (fun eng ->
        Engine.suspend (fun wake ->
            Engine.schedule eng 1.0 (fun () -> wake 1);
            Engine.schedule eng 2.0 (fun () -> wake 2)))
  in
  check_int "first waker wins" 1 v

let fibers_interleave () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1.0;
      log := `A :: !log);
  Engine.spawn eng (fun () ->
      Engine.sleep eng 0.5;
      log := `B :: !log);
  Engine.run eng;
  check_bool "B before A" true (List.rev !log = [ `B; `A ])

(* A NaN key would sit at the top of the heap and stop [run] with the
   queue non-empty; both entry points refuse it, and infinity stays a
   legal time. *)
let nan_time_rejected () =
  let eng = Engine.create () in
  let ran = ref false in
  Alcotest.check_raises "schedule_at nan" (Invalid_argument "Engine: NaN event time") (fun () ->
      Engine.schedule_at eng Float.nan ignore);
  Engine.schedule eng 1.0 (fun () -> ran := true);
  Engine.run eng;
  check_bool "later event ran" true !ran;
  check_int "queue drained" 0 (Engine.pending eng);
  check_float "clock at the later event" 1.0 (Engine.now eng)

let nan_delay_rejected () =
  let eng = Engine.create () in
  Alcotest.check_raises "schedule nan" (Invalid_argument "Engine: NaN event time") (fun () ->
      Engine.schedule eng Float.nan ignore);
  Alcotest.check_raises "timer nan" (Invalid_argument "Engine: NaN event time") (fun () ->
      ignore (Engine.timer eng Float.nan ignore));
  check_int "nothing queued" 0 (Engine.pending eng);
  Engine.schedule_at eng Float.infinity ignore;
  check_int "infinity is legal" 1 (Engine.pending eng)

(* A sleeper's wake-up and a plain event at the same instant run in the
   order they were scheduled, whichever came first. *)
let sleep_orders_with_schedule () =
  let order ~sleep_first =
    let eng = Engine.create () in
    let log = ref [] in
    let plain () = Engine.schedule_at eng 1.0 (fun () -> log := "plain" :: !log) in
    if not sleep_first then plain ();
    Engine.spawn eng (fun () ->
        Engine.sleep_until eng 1.0;
        log := "sleeper" :: !log);
    if sleep_first then Engine.schedule eng 0.0 plain;
    Engine.run eng;
    List.rev !log
  in
  check_bool "sleeper first" true (order ~sleep_first:true = [ "sleeper"; "plain" ]);
  check_bool "plain first" true (order ~sleep_first:false = [ "plain"; "sleeper" ]);
  (* the relative form draws its place the same way *)
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      Engine.sleep eng 0.5;
      log := "sleeper" :: !log);
  Engine.schedule eng 0.0 (fun () -> Engine.schedule eng 0.5 (fun () -> log := "plain" :: !log));
  Engine.run eng;
  check_bool "relative sleeper first" true (List.rev !log = [ "sleeper"; "plain" ])

(* Sleeping for no time, a negative time, or until the present or past
   does not park the fiber: an event already queued for this instant
   has not run when the call returns. *)
let sleep_nothing_returns () =
  run_fiber (fun eng ->
      Engine.sleep eng 1.0;
      let queued = ref false in
      Engine.schedule eng 0.0 (fun () -> queued := true);
      let now = Engine.now eng in
      Engine.sleep eng 0.0;
      Engine.sleep eng (-1.0);
      Engine.sleep_until eng now;
      Engine.sleep_until eng (now -. 1.0);
      check_bool "no other event ran" false !queued;
      check_int "nothing more queued" 1 (Engine.pending eng);
      check_float "clock unmoved" now (Engine.now eng))

exception Boom

let raise_after_sleep_aborts_run () =
  let eng = Engine.create () in
  let after = ref false in
  Engine.spawn eng (fun () ->
      Engine.sleep eng 1.0;
      raise Boom);
  Engine.schedule eng 2.0 (fun () -> after := true);
  Alcotest.check_raises "run aborts" Boom (fun () -> Engine.run eng);
  check_float "at the wake-up" 1.0 (Engine.now eng);
  check_bool "later event not run" false !after;
  check_int "later event still queued" 1 (Engine.pending eng)

let resource_fcfs () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" () in
  let finish = Array.make 2 0.0 in
  Engine.spawn eng (fun () ->
      Resource.use r 1.0;
      finish.(0) <- Engine.now eng);
  Engine.spawn eng (fun () ->
      Resource.use r 0.5;
      finish.(1) <- Engine.now eng);
  Engine.run eng;
  check_float "first holds 1.0" 1.0 finish.(0);
  check_float "second queues behind" 1.5 finish.(1);
  check_float "busy time" 1.5 (Resource.busy_time r);
  check_float "utilization" 1.0 (Resource.utilization r ~elapsed:1.5);
  check_float "queue delay" 1.0 (Resource.queue_delay_total r);
  check_int "served" 2 (Resource.served r)

let resource_parallel_capacity () =
  let eng = Engine.create () in
  let r = Resource.create eng ~capacity:2 ~name:"arms" () in
  let finish = Array.make 3 0.0 in
  for i = 0 to 2 do
    Engine.spawn eng (fun () ->
        Resource.use r 1.0;
        finish.(i) <- Engine.now eng)
  done;
  Engine.run eng;
  check_float "two run in parallel" 1.0 finish.(0);
  check_float "two run in parallel 2" 1.0 finish.(1);
  check_float "third queues" 2.0 finish.(2)

let resource_zero_service () =
  run_fiber (fun eng ->
      let r = Resource.create eng ~name:"r" () in
      let t0 = Engine.now eng in
      Resource.use r 0.0;
      check_float "no wait" t0 (Engine.now eng))

let fiber_join_all () =
  let eng = Engine.create () in
  let done_at = ref 0.0 in
  Engine.spawn eng (fun () ->
      Fiber.join_all eng
        [ (fun () -> Engine.sleep eng 1.0); (fun () -> Engine.sleep eng 3.0); (fun () -> ()) ];
      done_at := Engine.now eng);
  Engine.run eng;
  check_float "joined at max" 3.0 !done_at

let fiber_join_empty () =
  run_fiber (fun eng ->
      let t0 = Engine.now eng in
      Fiber.join_all eng [];
      check_float "instant" t0 (Engine.now eng))

let fiber_timeout () =
  let r =
    run_fiber (fun eng ->
        Fiber.timeout eng 1.0 (fun () ->
            Engine.sleep eng 5.0;
            `Late))
  in
  check_bool "timed out" true (r = None);
  let r =
    run_fiber (fun eng ->
        Fiber.timeout eng 1.0 (fun () ->
            Engine.sleep eng 0.5;
            `Fast))
  in
  check_bool "completed" true (r = Some `Fast)

(* When [f] wins, the limit timer leaves the queue with it: the run ends
   at [f]'s finish, not at the limit. *)
let fiber_timeout_cancels_limit () =
  let eng = Engine.create () in
  let r = ref None in
  Engine.spawn eng (fun () ->
      r := Fiber.timeout eng 10.0 (fun () ->
          Engine.sleep eng 0.5;
          `Fast));
  Engine.run eng;
  check_bool "completed" true (!r = Some `Fast);
  check_float "run ends at the finish" 0.5 (Engine.now eng)

let parallel_window_bounds () =
  let eng = Engine.create () in
  let inflight = ref 0 in
  let peak = ref 0 in
  let ran = ref 0 in
  Engine.spawn eng (fun () ->
      Fiber.parallel_window eng ~window:3 10 (fun _ ->
          incr inflight;
          if !inflight > !peak then peak := !inflight;
          Engine.sleep eng 1.0;
          decr inflight;
          incr ran));
  Engine.run eng;
  check_int "all ran" 10 !ran;
  check_bool "peak <= window" true (!peak <= 3);
  check_int "peak reaches window" 3 !peak

let parallel_window_order () =
  let eng = Engine.create () in
  let starts = ref [] in
  Engine.spawn eng (fun () ->
      Fiber.parallel_window eng ~window:2 5 (fun i ->
          starts := i :: !starts;
          Engine.sleep eng (0.1 *. float_of_int (5 - i))));
  Engine.run eng;
  check_bool "issue order" true (List.rev !starts = [ 0; 1; 2; 3; 4 ])

let parallel_window_zero () =
  run_fiber (fun eng -> Fiber.parallel_window eng ~window:4 0 (fun _ -> Alcotest.fail "no items"))

let suite =
  [
    ("event ordering", `Quick, event_ordering);
    drains_in_time_then_fifo_order;
    min_under_interleaved_schedule_step;
    timer_cancel_matches_model;
    ("cancel stale handles", `Quick, cancel_stale_handles);
    ("cancel inside heap", `Quick, cancel_inside_heap);
    ("schedule past clamps", `Quick, schedule_past_clamps);
    ("run ~until", `Quick, run_until);
    ("run ~until advances clock", `Quick, run_until_advances_clock);
    ("sleep advances time", `Quick, sleep_advances_time);
    ("suspend resumes with value", `Quick, suspend_resumes_with_value);
    ("waker idempotent", `Quick, waker_idempotent);
    ("NaN time rejected", `Quick, nan_time_rejected);
    ("NaN delay rejected", `Quick, nan_delay_rejected);
    ("sleep orders with schedule_at", `Quick, sleep_orders_with_schedule);
    ("sleep for nothing returns at once", `Quick, sleep_nothing_returns);
    ("raise after sleep aborts run", `Quick, raise_after_sleep_aborts_run);
    ("fibers interleave", `Quick, fibers_interleave);
    ("resource FCFS", `Quick, resource_fcfs);
    ("resource parallel capacity", `Quick, resource_parallel_capacity);
    ("resource zero service", `Quick, resource_zero_service);
    ("fiber join_all", `Quick, fiber_join_all);
    ("fiber join empty", `Quick, fiber_join_empty);
    ("fiber timeout", `Quick, fiber_timeout);
    ("fiber timeout cancels its limit", `Quick, fiber_timeout_cancels_limit);
    ("parallel_window bounds", `Quick, parallel_window_bounds);
    ("parallel_window order", `Quick, parallel_window_order);
    ("parallel_window zero items", `Quick, parallel_window_zero);
  ]
