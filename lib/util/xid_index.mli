(** Allocation-free map from an RPC xid to a small pool slot.

    Both ends of the datagram RPC path keep their outstanding requests in
    a preallocated pool and find them again by xid when the reply comes
    back: the µproxy's pending records and [Slice_net.Rpc]'s pending
    calls. This is the one index they share — open addressing with
    linear probing over its own key and value arrays, a Fibonacci-hashed
    home, load at most 1/2, and backward-shift deletion (no tombstones).
    Lookups, inserts and deletes allocate nothing. Its owner sizes it to
    the pool and calls {!grow} when the pool grows. *)

type t

val create : int -> t
(** [create n] holds up to [n] bindings (rounded up to a power of two). *)

val capacity : t -> int
(** Bindings it can hold before {!add} refuses: half the table. *)

val length : t -> int
(** Bindings currently held. *)

val find : t -> int -> int
(** The slot bound to an xid, or [-1]. *)

val add : t -> int -> int -> unit
(** [add t xid slot] binds a non-negative, unbound xid.
    @raise Invalid_argument when the xid is negative or already bound, or
    when the index is at {!capacity}. *)

val remove : t -> int -> unit
(** Unbind an xid; a no-op when it is not bound. *)

val clear : t -> unit
(** Drop every binding, keeping the table. *)

val grow : t -> unit
(** Double the capacity and rehash (allocates). *)

val home : t -> int -> int
(** The cell an xid's probe starts from at the current size. Exposed so
    tests can build colliding and wrapping probe runs. *)
