(* The gate checker against the real smoke artifact: it must pass as
   written, and every gate must fire — naming itself — when its value is
   moved just past the bound or its path is deleted. A gate that cannot
   fire would fail here. *)

module Json = Slice_util.Json

let artifact = Json.of_string (In_channel.with_open_bin "BENCH.json" In_channel.input_all)

(* Apply [f] at a path: [*] descends into the first element only (one bad
   row must be enough), and a trailing [#] hands [f] the array or string
   itself. [f] returns [None] to delete. *)
let rec update segs f j =
  match (segs, j) with
  | ([] | [ "#" ]), _ -> f j
  | "*" :: rest, Json.Arr (x :: xs) ->
      Some (Json.Arr (match update rest f x with Some x -> x :: xs | None -> xs))
  | key :: rest, Json.Obj fields ->
      Some
        (Json.Obj
           (List.filter_map
              (fun (k, v) ->
                if k = key then Option.map (fun v -> (k, v)) (update rest f v) else Some (k, v))
              fields))
  | _ -> Alcotest.failf "path step %s not found" (String.concat "." segs)

let mutate segs f =
  match update segs f artifact with Some j -> j | None -> Alcotest.fail "artifact deleted"

let segs (g : Gates.gate) = String.split_on_char '.' g.Gates.path
let last g = List.nth (segs g) (List.length (segs g) - 1)
let parent g = List.filteri (fun i _ -> i < List.length (segs g) - 1) (segs g)

(* The value just past the bound: the adjacent float for measurements,
   one more or less for lengths. *)
let past (g : Gates.gate) ~len =
  let up b = if len then b +. 1.0 else Float.succ b in
  let down b = if len then b -. 1.0 else Float.pred b in
  match g.Gates.op with
  | Gates.Lt | Gates.Gt -> g.Gates.bound
  | Gates.Le | Gates.Eq -> up g.Gates.bound
  | Gates.Ge -> down g.Gates.bound

let resize n = function
  | Json.Str s -> Json.Str (String.sub (s ^ String.make n 'x') 0 n)
  | Json.Arr items ->
      let last = List.nth items (List.length items - 1) in
      Json.Arr (List.init n (fun i -> Option.value (List.nth_opt items i) ~default:last))
  | j -> Alcotest.failf "cannot resize %s" (Json.to_string j)

(* The mutated artifact goes through the printer and parser, as the
   smoke run's re-read from disk does. *)
let fails_naming (g : Gates.gate) j =
  let failures = Gates.check (Json.of_string (Json.to_string j)) in
  let prefix = Printf.sprintf "gate %s " g.Gates.name in
  if not (List.exists (String.starts_with ~prefix) failures) then
    Alcotest.failf "gate %s did not fire; failures: [%s]" g.Gates.name
      (String.concat "; " failures)

let pushed_past g () =
  let len = last g = "#" in
  let v = past g ~len in
  fails_naming g
    (mutate (segs g) (fun j -> Some (if len then resize (int_of_float v) j else Json.Num v)))

(* Deletes the key the path ends in; a trailing [*] or [#] deletes the
   array or string it follows. *)
let deleted g () =
  let key = if last g = "*" || last g = "#" then parent g else segs g in
  fails_naming g (mutate key (fun _ -> None))

let real_artifact_passes () =
  Alcotest.(check (list string)) "no failed gates" [] (Gates.check artifact);
  Alcotest.(check int)
    "every gate declared" (List.length Gates.all)
    (match Json.member "gates" artifact with Some (Json.Arr gs) -> List.length gs | _ -> 0)

(* A workload added to perfbench gets window gates automatically, but
   its words ratchet has to be measured and written down. *)
let every_workload_ratcheted () =
  List.iter
    (fun (wl : Perfbench.Workloads.t) ->
      let name = wl.Perfbench.Workloads.name in
      if not (List.mem_assoc name Gates.words_ratchet) then
        Alcotest.failf "workload %s has no words_per_op ratchet" name)
    Perfbench.Workloads.all

let () =
  let per_gate f = List.map (fun (g : Gates.gate) -> (g.Gates.name, `Quick, f g)) Gates.all in
  Alcotest.run "bench-gates"
    [
      ( "artifact",
        [
          ("real smoke artifact passes", `Quick, real_artifact_passes);
          ("every workload ratcheted", `Quick, every_workload_ratcheted);
        ] );
      ("past-bound", per_gate pushed_past);
      ("deleted", per_gate deleted);
    ]
