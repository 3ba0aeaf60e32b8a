(** The file set the scale and failover exhibits run their mixes over
    and audit afterwards: small files spread across a few directories
    (small-file class) plus big files whose chunks from the third on sit
    above the small-file threshold (storage class). *)

val small_bytes : int
(** Size of every small file. *)

val chunk : int
(** Big-file chunk: one stripe unit. *)

type entry = { e_dir : Slice_nfs.Fh.t; e_name : string; e_fh : Slice_nfs.Fh.t }

type t = { fs_dirs : Slice_nfs.Fh.t array; fs_small : entry array; fs_big : entry array }

type audit = {
  aud_checked : int;  (** names and byte ranges re-verified *)
  aud_lost : int;  (** failed or short — must be 0 *)
  aud_ownership_violations : int;
      (** logical sites without exactly one owner backing the published
          table entry ({!Slice_reconfig.Reconfig.ownership_violations})
          — must be 0 *)
}

val build :
  Slice_workload.Client.t -> tag:string -> proc:int -> small:int -> big:int -> big_chunks:int -> t
(** Create client [proc]'s file set under the root directory [<tag><proc>]:
    [small] files of {!small_bytes} and [big] files of [big_chunks]
    chunks, every one committed. *)

val pick_small : Slice_util.Prng.t -> t -> entry
(** A small file, with the SPECsfs generator's 80/20 hot-set skew. *)

val pick_big : Slice_util.Prng.t -> t -> entry

val big_off : Slice_util.Prng.t -> big_chunks:int -> int64
(** A chunk offset at chunk 2 or later: storage-class I/O. *)

val audit : Slice.Ensemble.t -> Slice_workload.Client.t array -> t array -> big_chunks:int -> audit
(** Post-run audit: client [p] re-reads file set [p] — every name still
    resolves to its handle, every small file and big-file chunk reads
    back at full length — then the ensemble's exactly-one-owner
    invariant is checked. Must run in a fiber of the ensemble's
    engine. *)
