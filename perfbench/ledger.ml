(* Pure arithmetic of the benchmark ledger: sample buffers, percentiles
   with the ten-samples-beyond rule, medians and NaN-free ratios. No
   simulator types here, so the helpers are unit-testable on their own. *)

(* A growable float buffer: latency samples pooled over repetitions. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* Per-op ratios of a window: a window in which nothing completed yields
   0, never NaN or infinity, so every printed number stays valid JSON. *)
let ratio num den = if den > 0.0 && Float.is_finite num then num /. den else 0.0

(* Rank of the nearest-rank [p]-th percentile among [n] sorted samples
   (1-based); 0 when there are none. *)
let rank ~n p =
  if n <= 0 then 0 else max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

(* Samples strictly beyond the [p]-th percentile. A tail percentile is
   reported only when at least ten samples lie beyond it. *)
let beyond ~n p = n - rank ~n p

let tail_ok ~n p = beyond ~n p >= 10

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* The [p]-th percentile of an already sorted array by mid-distribution
   interpolation: each distinct value sits at the middle of its share of
   the cumulative distribution, and the percentile interpolates linearly
   between neighbouring distinct values. On distinct samples this is the
   usual interpolated sample percentile; when a fixed-cost path makes
   many samples equal, the result still moves continuously with the
   shares around it instead of sticking to the tied value. Clamped to
   the extreme values; 0 when empty. *)
let percentile sorted_a p =
  let n = Array.length sorted_a in
  if n = 0 then 0.0
  else begin
    let q = p /. 100.0 and nf = float_of_int n in
    (* distinct values with the mid-point of their cumulative share *)
    let points = ref [] and i = ref 0 in
    while !i < n do
      let v = sorted_a.(!i) and j = ref !i in
      while !j < n && sorted_a.(!j) = v do
        incr j
      done;
      points := (v, (float_of_int (!i + !j) /. 2.0) /. nf) :: !points;
      i := !j
    done;
    let rec go = function
      | (v1, f1) :: ((v2, f2) :: _ as rest) ->
          if q <= f1 then v1
          else if q < f2 then v1 +. ((v2 -. v1) *. (q -. f1) /. (f2 -. f1))
          else go rest
      | [ (v, _) ] -> v
      | [] -> 0.0
    in
    go (List.rev !points)
  end

(* Median with the midpoint rule on even counts; 0 when empty. *)
let median xs =
  match sorted (Array.of_list xs) with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
