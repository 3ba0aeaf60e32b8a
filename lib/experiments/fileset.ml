module Nfs = Slice_nfs.Nfs
module Fh = Slice_nfs.Fh
module Prng = Slice_util.Prng
module Client = Slice_workload.Client
module Reconfig = Slice_reconfig.Reconfig

let small_bytes = 4096
let chunk = 32768

type entry = { e_dir : Fh.t; e_name : string; e_fh : Fh.t }
type t = { fs_dirs : Fh.t array; fs_small : entry array; fs_big : entry array }
type audit = { aud_checked : int; aud_lost : int; aud_ownership_violations : int }

let build cl ~tag ~proc ~small ~big ~big_chunks =
  let fail what st = failwith (tag ^ " setup " ^ what ^ ": " ^ Nfs.status_name st) in
  let top =
    match Client.mkdir cl Fh.root (Printf.sprintf "%s%02d" tag proc) with
    | Ok (fh, _) -> fh
    | Error st -> fail "mkdir" st
  in
  let ndirs = max 2 (small / 24) in
  let dirs =
    Array.init ndirs (fun i ->
        if i = 0 then top
        else
          match Client.mkdir cl top (Printf.sprintf "d%03d" i) with
          | Ok (fh, _) -> fh
          | Error st -> fail "mkdir2" st)
  in
  let fs_small =
    Array.init small (fun i ->
        let dir = dirs.(i mod ndirs) in
        let name = Printf.sprintf "f%04d" i in
        match Client.create_file cl dir name with
        | Ok (fh, _) ->
            ignore (Client.write_at cl fh ~off:0L ~data:(Nfs.Synthetic small_bytes) ());
            ignore (Client.commit cl fh);
            { e_dir = dir; e_name = name; e_fh = fh }
        | Error st -> fail "create" st)
  in
  let fs_big =
    Array.init big (fun i ->
        let name = Printf.sprintf "g%02d" i in
        match Client.create_file cl top name with
        | Ok (fh, _) ->
            for c = 0 to big_chunks - 1 do
              ignore
                (Client.write_at cl fh
                   ~off:(Int64.of_int (c * chunk))
                   ~data:(Nfs.Synthetic chunk) ())
            done;
            ignore (Client.commit cl fh);
            { e_dir = top; e_name = name; e_fh = fh }
        | Error st -> fail "create big" st)
  in
  { fs_dirs = dirs; fs_small; fs_big }

let pick_small prng fs =
  let n = Array.length fs.fs_small in
  let hot = max 1 (n / 5) in
  if Prng.float prng 1.0 < 0.8 then fs.fs_small.(Prng.int prng hot)
  else fs.fs_small.(Prng.int prng n)

let pick_big prng fs = fs.fs_big.(Prng.int prng (Array.length fs.fs_big))
let big_off prng ~big_chunks = Int64.of_int ((2 + Prng.int prng (big_chunks - 2)) * chunk)

let audit ens cls (filesets : t array) ~big_chunks =
  let checked = ref 0 and lost = ref 0 in
  Array.iteri
    (fun p fs ->
      let c = cls.(p) in
      Array.iter
        (fun f ->
          incr checked;
          (match Client.lookup c f.e_dir f.e_name with
          | Ok (fh, _) when Int64.equal fh.Fh.file_id f.e_fh.Fh.file_id -> ()
          | _ -> incr lost);
          incr checked;
          match Client.read_at c f.e_fh ~off:0L ~count:small_bytes with
          | Ok (d, _) when Nfs.wdata_length d = small_bytes -> ()
          | _ -> incr lost)
        fs.fs_small;
      Array.iter
        (fun g ->
          for ci = 0 to big_chunks - 1 do
            incr checked;
            match
              Client.read_at c g.e_fh ~off:(Int64.of_int (ci * chunk)) ~count:chunk
            with
            | Ok (d, _) when Nfs.wdata_length d = chunk -> ()
            | _ -> incr lost
          done)
        fs.fs_big)
    filesets;
  {
    aud_checked = !checked;
    aud_lost = !lost;
    aud_ownership_violations = Reconfig.ownership_violations ens;
  }
