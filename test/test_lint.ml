(* Tier-1 coverage for slicelint itself (DESIGN.md §10): each rule
   family fires on its fixture, respects its inline suppression, and the
   JSON report matches the checked-in golden byte-for-byte. Goldens are
   regenerated with `slicelint --fixtures --json <root>`. *)

open Helpers
module Driver = Slice_lint.Driver
module Config = Slice_lint.Config
module Finding = Slice_lint.Finding
module Pragma = Slice_lint.Pragma
module Typed = Slice_lint.Typed
module Json = Slice_util.Json
module Xdr = Slice_xdr.Xdr
module Codec = Slice_nfs.Codec
module Proxy = Slice.Proxy

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Config scopes and the golden reports both speak relative paths, so
   run each test from a directory containing [anchor]. Under
   `dune runtest` that is already the cwd; under `dune exec` from the
   repo root we hop into the right directory and hop back. *)
let with_cwd anchor f () =
  if Sys.file_exists anchor then f ()
  else
    let candidates =
      [ Filename.concat "_build" (Filename.concat "default" "test");
        "test"; ".."; Filename.concat ".." (Filename.concat ".." "..") ]
      @ (match Sys.getenv_opt "DUNE_SOURCEROOT" with
        | Some root -> [ root; Filename.concat root "test" ]
        | None -> [])
    in
    match List.find_opt (fun d -> Sys.file_exists (Filename.concat d anchor)) candidates with
    | None -> Alcotest.fail (anchor ^ ": not found from cwd or source root")
    | Some d ->
        let old = Sys.getcwd () in
        Sys.chdir d;
        Fun.protect ~finally:(fun () -> Sys.chdir old) f

let scan roots = Driver.scan Config.fixtures roots

(* Typed-tier scans point --cmt-dir at the fixture library's own build
   tree, so the analysis sees exactly the fixtures' .cmt files. *)
let scan_typed roots = Driver.scan ~cmt_dir:"lint_fixtures_typed" Config.fixtures roots

(* The report for a fixture root must match its golden exactly —
   messages, positions, suppression reasons and ordering included. *)
let golden ?(typed = false) name roots () =
  let report = (if typed then scan_typed else scan) roots in
  let got = Json.to_string (Driver.to_json report) ^ "\n" in
  let want = read_file ("lint_fixtures/golden/" ^ name ^ ".json") in
  check_string ("golden " ^ name) want got

(* Structural claims the goldens imply, asserted directly so a golden
   regenerated from a broken linter cannot silently weaken the suite:
   the rule fires at least [live] times unsuppressed, and exactly
   [suppressed] findings of the rule carry a pragma reason. *)
let fires ?(typed = false) rule roots ~live ~suppressed () =
  let report = (if typed then scan_typed else scan) roots in
  let of_rule = List.filter (fun f -> f.Finding.rule = rule) report.Driver.findings in
  let supp, unsupp = List.partition Finding.is_suppressed of_rule in
  check_int (Finding.rule_name rule ^ " live findings") live (List.length unsupp);
  check_int (Finding.rule_name rule ^ " suppressed findings") suppressed (List.length supp);
  List.iter
    (fun f ->
      check_bool "suppression carries a reason" true
        (match f.Finding.suppressed with Some r -> r <> "" | None -> false))
    supp

(* Negatives that must stay negative: the blessed sorted-fold pattern,
   scalar equality, constant constructors, total matches, allowlisted
   and interface-complete modules. *)
let no_false_positives () =
  let d2 = scan [ "lint_fixtures/d2.ml" ] in
  List.iter
    (fun f ->
      if not (Finding.is_suppressed f) then
        check_bool "sorted fold is not flagged" false (f.Finding.line = 8))
    d2.Driver.findings;
  let e1 = scan [ "lint_fixtures/e1.ml" ] in
  List.iter
    (fun f -> check_bool "scalar =/None compare not flagged" false (f.Finding.line >= 11 && f.Finding.line <= 12))
    e1.Driver.findings;
  let x1 = scan [ "lint_fixtures/x1" ] in
  List.iter
    (fun f ->
      check_bool "allowed.ml / withint.ml not flagged" false
        (f.Finding.file = "lint_fixtures/x1/allowed.ml"
        || f.Finding.file = "lint_fixtures/x1/withint.ml"))
    x1.Driver.findings

(* The gate's exit condition: suppressed findings do not count as
   errors, unsuppressed ones do. *)
let error_counting () =
  let report = scan [ "lint_fixtures/d2.ml" ] in
  check_int "d2 errors" 1 (Driver.errors report);
  check_int "d2 suppressed" 1 (Driver.suppressed report)

(* Pragma grammar, driven directly: the marker is assembled by
   concatenation so this file does not trip the scanner itself. *)
let pragma_parsing () =
  let m = "(* lint" ^ ": " in
  let collect src = Pragma.collect ~file:"inline.ml" src in
  let ok, bad = collect ("let x = 1 " ^ m ^ "E1 ok — tested inline *)\n") in
  check_int "one pragma" 1 (List.length ok);
  check_int "no parse findings" 0 (List.length bad);
  (match ok with
  | [ p ] ->
      check_bool "rule is E1" true (p.Pragma.rule = Finding.E1);
      check_string "reason" "tested inline" p.Pragma.reason
  | _ -> Alcotest.fail "expected exactly one pragma");
  let ok, bad = collect (m ^ "bounded -- ascii dashes work too *)\n") in
  check_int "ascii-dash pragma parses" 1 (List.length ok);
  check_int "ascii-dash pragma is clean" 0 (List.length bad);
  (match ok with
  | [ p ] ->
      check_bool "bounded maps to R1" true (p.Pragma.rule = Finding.R1);
      check_string "ascii reason" "ascii dashes work too" p.Pragma.reason
  | _ -> Alcotest.fail "expected exactly one pragma");
  let ok, bad = collect (m ^ "R1 ok *)\n") in
  check_int "reason-less pragma rejected" 0 (List.length ok);
  check_int "reason-less pragma is a finding" 1 (List.length bad);
  let ok, bad = collect (m ^ "parse ok — cannot suppress parse *)\n") in
  check_int "parse is not suppressible" 0 (List.length ok);
  check_int "parse pragma is a finding" 1 (List.length bad)

(* A pragma suppresses a finding on its own line or the line below,
   nothing further; an unmatched pragma is itself a finding. *)
let pragma_application () =
  let pragma line = { Pragma.line; rule = Finding.R1; reason = "why"; used = false } in
  let finding line = Finding.make ~file:"f.ml" ~line ~col:0 ~rule:Finding.R1 "R1: t" in
  let applied = Pragma.apply ~file:"f.ml" [ pragma 10 ] [ finding 10; finding 11; finding 12 ] in
  let by_line n = List.find (fun f -> f.Finding.line = n) applied in
  check_bool "same line suppressed" true (Finding.is_suppressed (by_line 10));
  check_bool "next line suppressed" true (Finding.is_suppressed (by_line 11));
  check_bool "two lines below not suppressed" false (Finding.is_suppressed (by_line 12));
  let applied = Pragma.apply ~file:"f.ml" [ pragma 20 ] [] in
  check_int "unused pragma surfaces" 1 (List.length applied);
  check_bool "unused pragma keeps its rule" true
    ((List.hd applied).Finding.rule = Finding.R1)

(* ---- typed tier (A1/F1) ---- *)

let a1_roots = [ "lint_fixtures_typed/a1.ml" ]
let f1_roots = [ "lint_fixtures_typed/f1.ml"; "lint_fixtures_typed/f1.mli" ]

(* Structural claims over the A1 fixture beyond the golden: every [@hot]
   binding surfaces as a hot root, clean roots report a zero budget, and
   suppressed sites still count toward their root's words/sites. *)
let a1_hot_roots () =
  let report = scan_typed a1_roots in
  check_bool "typed tier ran" true report.Driver.typed_ran;
  let names = List.map (fun (h : Typed.hot_root) -> h.Typed.hr_name) report.Driver.hot_roots in
  check_bool "all [@hot] roots surface, sorted" true
    (names
    = [
        "A1.calls_helper"; "A1.dispatch"; "A1.install"; "A1.masked"; "A1.pair";
        "A1.read_boxed"; "A1.slow_pair";
      ]);
  let root n = List.find (fun (h : Typed.hot_root) -> h.Typed.hr_name = n) report.Driver.hot_roots in
  let masked = root "A1.masked" in
  check_int "clean root has no sites" 0 masked.Typed.hr_sites;
  check_int "clean root costs no words" 0 masked.Typed.hr_words;
  let pair = root "A1.pair" in
  check_int "tuple root has one site" 1 pair.Typed.hr_sites;
  check_bool "tuple root costs words" true (pair.Typed.hr_words > 0);
  let dispatch = root "A1.dispatch" in
  check_int "suppressed site still counts in the budget" 1 dispatch.Typed.hr_sites

(* Interprocedural attribution: the helper's conses are charged to the
   hot caller, at the helper's own source position, naming both. *)
let a1_interprocedural () =
  let report = scan_typed a1_roots in
  let on_17 =
    List.filter
      (fun f -> f.Finding.rule = Finding.A1 && f.Finding.line = 17)
      report.Driver.findings
  in
  check_int "both helper conses flagged once each" 2 (List.length on_17);
  List.iter
    (fun f ->
      check_bool "finding names the helper" true (contains ~needle:"A1.helper" f.Finding.msg);
      check_bool "finding names the hot root" true
        (contains ~needle:"A1.calls_helper" f.Finding.msg))
    on_17

(* A pragma above the first line of a multi-line expression suppresses
   the finding the expression reports at its start line. *)
let a1_multiline_pragma () =
  let report = scan_typed a1_roots in
  let f =
    List.find
      (fun f -> f.Finding.rule = Finding.A1 && f.Finding.line = 27)
      report.Driver.findings
  in
  check_bool "multi-line tuple suppressed" true (Finding.is_suppressed f)

(* F1 placement: findings sit on exported entry points only — the
   private helper is reported through its callers, the wedge-guarded
   dispatcher stays clean, and the witness spells out the call chain. *)
let f1_entries () =
  let report = scan_typed f1_roots in
  let f1 = List.filter (fun f -> f.Finding.rule = Finding.F1) report.Driver.findings in
  let live = List.filter (fun f -> not (Finding.is_suppressed f)) f1 in
  check_bool "findings sit on the exported entries" true
    (List.sort compare (List.map (fun f -> f.Finding.line) live) = [ 18; 21; 24 ]);
  check_bool "no finding on the private helper" true
    (not (List.exists (fun f -> f.Finding.line = 15) f1));
  check_bool "wedge-guarded handle is clean" true
    (not (List.exists (fun f -> f.Finding.line = 29) f1));
  let via = List.find (fun f -> f.Finding.line = 21) live in
  check_bool "witness chains through the private helper" true
    (contains ~needle:"F1.log_raw" via.Finding.msg
    && contains ~needle:"Wal.append" via.Finding.msg)

(* A hot-path file with no .cmt must fail loudly, not pass silently. *)
let typed_missing_cmt () =
  let report = Driver.scan ~cmt_dir:"lint_fixtures/golden" Config.fixtures a1_roots in
  check_bool "missing cmt is an error" true (Driver.errors report > 0);
  check_bool "message points at --cmt-dir" true
    (List.exists
       (fun f -> f.Finding.rule = Finding.A1 && contains ~needle:"no .cmt" f.Finding.msg)
       report.Driver.findings)

(* Two pragmas stacked on one line each suppress their own rule on the
   next line, and neither is reported unused. *)
let pragma_stacking () =
  let m = "(* lint" ^ ": " in
  let src =
    "let x = 1\n" ^ m ^ "R1 ok — first *) " ^ m ^ "E1 ok — second *)\n" ^ "let y = 2\n"
  in
  let ok, bad = Pragma.collect ~file:"inline.ml" src in
  check_int "two pragmas on one line" 2 (List.length ok);
  check_int "stacked pragmas parse clean" 0 (List.length bad);
  let f rule = Finding.make ~file:"inline.ml" ~line:3 ~col:0 ~rule (Finding.rule_name rule ^ ": t") in
  let applied = Pragma.apply ~file:"inline.ml" ok [ f Finding.R1; f Finding.E1 ] in
  check_int "no unused-pragma findings appear" 2 (List.length applied);
  check_int "both findings suppressed" 2
    (List.length (List.filter Finding.is_suppressed applied))

(* Typed-tier pragma naming, and the unused-pragma audit's gating: an
   unused A1/F1 pragma is an error only when the typed tier ran, while
   surface-tier pragmas are audited either way. *)
let pragma_typed_rules () =
  let m = "(* lint" ^ ": " in
  let collect src = Pragma.collect ~file:"inline.ml" src in
  (match collect (m ^ "A1 ok — hot-path budget reviewed *)\n") with
  | [ p ], [] -> check_bool "A1 pragma names the typed rule" true (p.Pragma.rule = Finding.A1)
  | _ -> Alcotest.fail "expected one clean A1 pragma");
  (match collect (m ^ "F1 ok — control plane, fenced upstream *)\n") with
  | [ p ], [] -> check_bool "F1 pragma names the typed rule" true (p.Pragma.rule = Finding.F1)
  | _ -> Alcotest.fail "expected one clean F1 pragma");
  let unused rule = { Pragma.line = 4; rule; reason = "why"; used = false } in
  check_int "unused A1 pragma silent without cmts" 0
    (List.length (Pragma.apply ~typed_ran:false ~file:"f.ml" [ unused Finding.A1 ] []));
  check_int "unused A1 pragma surfaces with cmts" 1
    (List.length (Pragma.apply ~typed_ran:true ~file:"f.ml" [ unused Finding.A1 ] []));
  check_int "unused R1 pragma surfaces either way" 1
    (List.length (Pragma.apply ~typed_ran:false ~file:"f.ml" [ unused Finding.R1 ] []))

(* Runtime cross-check of A1's verdict: the repo lint report (written by
   the @lint rule this test run depends on) says these exported [@hot]
   roots are allocation-free; Gc.minor_words must agree per call. *)
let probe_hot_roots () =
  let report = Json.of_string (read_file "../lint-report.json") in
  let roots =
    match Json.member "hot_roots" report with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "lint-report.json has no hot_roots"
  in
  let est name =
    match
      List.find_opt (fun r -> Json.member "name" r = Some (Json.Str name)) roots
    with
    | None -> Alcotest.failf "%s not among hot_roots in lint-report.json" name
    | Some r -> (
        match Json.member "est_words" r with
        | Some (Json.Num w) -> int_of_float w
        | _ -> Alcotest.fail "hot root without est_words")
  in
  let measure f =
    for _ = 1 to 256 do
      ignore (Sys.opaque_identity (f ()))
    done;
    let n = 2048 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let agree name f =
    check_int (name ^ " static budget") 0 (est name);
    let per_call = measure f in
    if per_call > 0.5 then
      Alcotest.failf "%s allocates %.3f words/call at runtime; A1 says none" name per_call
  in
  (* XDR decode primitives over one long zeroed buffer, so the consuming
     calls never need a fresh decoder inside the measured loop *)
  let d = Xdr.Dec.of_bytes (Bytes.make 65536 '\x00') in
  agree "Dec.u32" (fun () -> Xdr.Dec.u32 d);
  agree "Dec.bool" (fun () -> Xdr.Dec.bool d);
  agree "Dec.enum" (fun () -> Xdr.Dec.enum d);
  agree "Dec.skip" (fun () -> Xdr.Dec.skip d 4);
  agree "Dec.pos" (fun () -> Xdr.Dec.pos d);
  agree "Dec.remaining" (fun () -> Xdr.Dec.remaining d);
  agree "Dec.items_read" (fun () -> Xdr.Dec.items_read d);
  (* codec peek path and µproxy reply inspection on a zeroed packet *)
  let pkt = Bytes.make 64 '\x00' in
  agree "Codec.is_call" (fun () -> Codec.is_call pkt);
  agree "Codec.xid_of" (fun () -> Codec.xid_of pkt);
  agree "Codec.int_of_status" (fun () -> Codec.int_of_status Slice_nfs.Nfs.OK);
  agree "Proxy.reply_status" (fun () -> Proxy.reply_status pkt);
  agree "Proxy.op_of_proc" (fun () -> Proxy.op_of_proc 6);
  (* the shared xid index, and cancellation of live engine timers armed
     beforehand (arming boxes the event time, as scheduling always has) *)
  let idx = Slice_util.Xid_index.create 8 in
  Slice_util.Xid_index.add idx 3 1;
  agree "Xid_index.find" (fun () -> Slice_util.Xid_index.find idx 3);
  agree "Xid_index.add" (fun () ->
      Slice_util.Xid_index.add idx 5 2;
      Slice_util.Xid_index.remove idx 5);
  agree "Xid_index.remove" (fun () -> Slice_util.Xid_index.remove idx 7);
  let eng = Slice_sim.Engine.create () in
  let fire () = () in
  let timers = Array.init 4096 (fun i -> Slice_sim.Engine.timer eng (float_of_int i) fire) in
  let next = ref 0 in
  agree "Engine.cancel" (fun () ->
      Slice_sim.Engine.cancel eng timers.(!next land 4095);
      incr next)

(* The repo profile itself must be clean — the same scan the @lint alias
   runs, typed tier included, executed from the repo root (scopes and
   --cmt-dir are relative paths). *)
let repo_clean () =
  let report = Driver.scan ~cmt_dir:"." Config.repo [ "lib"; "bin"; "bench"; "examples" ] in
  check_int "repo unsuppressed findings" 0 (Driver.errors report);
  check_bool "typed tier ran over the repo" true report.Driver.typed_ran;
  check_bool "repo hot roots discovered" true
    (List.exists (fun (h : Typed.hot_root) -> h.Typed.hr_name = "Dec.u32") report.Driver.hot_roots
    && List.exists (fun (h : Typed.hot_root) -> h.Typed.hr_name = "Engine.pop_min") report.Driver.hot_roots);
  (* the zero-allocation ratchet: every root's static budget is zero *)
  check_bool "repo hot roots all zero" true
    (List.for_all (fun (h : Typed.hot_root) -> h.Typed.hr_words = 0) report.Driver.hot_roots);
  check_bool "repo suppressions all carry reasons" true
    (List.for_all
       (fun f ->
         match f.Finding.suppressed with Some r -> r <> "" | None -> true)
       report.Driver.findings)

let fixture_case name body = Alcotest.test_case name `Quick (with_cwd "lint_fixtures" body)

let suite =
  [
    fixture_case "golden d1" (golden "d1" [ "lint_fixtures/d1.ml" ]);
    fixture_case "golden d2" (golden "d2" [ "lint_fixtures/d2.ml" ]);
    fixture_case "golden r1" (golden "r1" [ "lint_fixtures/r1.ml" ]);
    fixture_case "golden e1" (golden "e1" [ "lint_fixtures/e1.ml" ]);
    fixture_case "golden p1" (golden "p1" [ "lint_fixtures/p1.ml" ]);
    fixture_case "golden x1" (golden "x1" [ "lint_fixtures/x1" ]);
    fixture_case "golden bad_pragma" (golden "bad_pragma" [ "lint_fixtures/bad_pragma.ml" ]);
    fixture_case "D1 fires and suppresses"
      (fires Finding.D1 [ "lint_fixtures/d1.ml" ] ~live:5 ~suppressed:1);
    fixture_case "D2 fires and suppresses"
      (fires Finding.D2 [ "lint_fixtures/d2.ml" ] ~live:1 ~suppressed:1);
    fixture_case "R1 fires and suppresses"
      (fires Finding.R1 [ "lint_fixtures/r1.ml" ] ~live:2 ~suppressed:1);
    fixture_case "E1 fires and suppresses"
      (fires Finding.E1 [ "lint_fixtures/e1.ml" ] ~live:4 ~suppressed:1);
    fixture_case "P1 fires and suppresses"
      (fires Finding.P1 [ "lint_fixtures/p1.ml" ] ~live:4 ~suppressed:1);
    fixture_case "X1 fires" (fires Finding.X1 [ "lint_fixtures/x1" ] ~live:2 ~suppressed:0);
    fixture_case "golden a1" (golden ~typed:true "a1" a1_roots);
    fixture_case "golden f1" (golden ~typed:true "f1" f1_roots);
    fixture_case "A1 fires and suppresses"
      (fires ~typed:true Finding.A1 a1_roots ~live:5 ~suppressed:2);
    fixture_case "F1 fires and suppresses"
      (fires ~typed:true Finding.F1 f1_roots ~live:3 ~suppressed:2);
    fixture_case "A1 hot-root accounting" a1_hot_roots;
    fixture_case "A1 interprocedural attribution" a1_interprocedural;
    fixture_case "A1 pragma covers a multi-line expression" a1_multiline_pragma;
    fixture_case "F1 findings land on exported entries" f1_entries;
    fixture_case "typed tier fails loudly without cmts" typed_missing_cmt;
    fixture_case "no false positives" no_false_positives;
    fixture_case "error counting" error_counting;
    Alcotest.test_case "pragma parsing" `Quick pragma_parsing;
    Alcotest.test_case "pragma application" `Quick pragma_application;
    Alcotest.test_case "pragma stacking" `Quick pragma_stacking;
    Alcotest.test_case "typed pragma rules and gating" `Quick pragma_typed_rules;
    fixture_case "Gc probe agrees with A1" probe_hot_roots;
    Alcotest.test_case "repo profile is clean" `Quick (with_cwd "lib" repo_clean);
  ]
