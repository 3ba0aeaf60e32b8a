type addr = int

type t = {
  mutable src : addr;
  mutable dst : addr;
  mutable sport : int;
  mutable dport : int;
  payload : bytes;
  mutable extra_size : int;
  mutable cksum : int;
}

let header_bytes = 74 (* 14 Ethernet + 20 IP + 8 UDP + 32 RPC record marks etc. *)

let wire_size t = header_bytes + Bytes.length t.payload + t.extra_size

(* make is completed by Cksum.seal, but Cksum depends on this module; we
   inline the checksum here to keep [make] self-contained. *)

(* RFC 1071 §2: the ones'-complement sum of 16-bit words equals the
   plain sum of wider big-endian words with the carries folded back in
   once at the end. The payload is summed 32 bits per load, two loads per
   step, into the int accumulator; each load adds under 2^32, so the
   63-bit int cannot overflow below 2^30 loads. As with a word-by-word
   ones'-complement sum, the folded result is 0 only when every word is. *)
let rec fold s = if s > 0xFFFF then fold ((s land 0xFFFF) + (s lsr 16)) else s

let u32 b i = Int32.to_int (Bytes.get_int32_be b i) land 0xFFFF_FFFF

let rec sum8 b i stop acc =
  if i >= stop then acc else sum8 b (i + 8) stop (acc + u32 b i + u32 b (i + 4))

(* The last bytes: 16-bit words, then an odd trailing byte as the high
   half of a zero-padded word. *)
let rec sum_tail b i n acc =
  if i + 2 <= n then sum_tail b (i + 2) n (acc + Bytes.get_uint16_be b i)
  else if i < n then acc + (Bytes.get_uint8 b i lsl 8)
  else acc

let sum_payload payload =
  let n = Bytes.length payload in
  let stop = n land lnot 7 in
  sum_tail payload stop n (sum8 payload 0 stop 0)

(* The pseudo-header's seven 16-bit words. *)
let pseudo_sum ~src ~dst ~sport ~dport ~len =
  let w v = v land 0xFFFF in
  w (src lsr 16) + w src + w (dst lsr 16) + w dst + w sport + w dport + w len

let compute_cksum ~src ~dst ~sport ~dport payload =
  let s = sum_payload payload + pseudo_sum ~src ~dst ~sport ~dport ~len:(Bytes.length payload) in
  lnot (fold s) land 0xFFFF

let make ~src ~dst ~sport ~dport ?(extra_size = 0) payload =
  {
    src;
    dst;
    sport;
    dport;
    payload;
    extra_size;
    cksum = compute_cksum ~src ~dst ~sport ~dport payload;
  }

let copy t =
  {
    src = t.src;
    dst = t.dst;
    sport = t.sport;
    dport = t.dport;
    payload = Bytes.copy t.payload;
    extra_size = t.extra_size;
    cksum = t.cksum;
  }
