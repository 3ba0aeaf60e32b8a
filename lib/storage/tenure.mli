(** A server's tenure over its logical sites: the one copy of the
    ownership, drain, per-site load and fencing-lease policy that every
    server class holds (the block coordinator uses only the lease).

    A server bounces a request for a site it does not own, so the µproxy
    refreshes its routing table lazily. Reconfiguration drains a moving
    site (reads admitted, writes bounced until commit or abort) and reads
    per-site load to rebalance; failover grants a fencing lease, past
    whose expiry the server is wedged and bounces everything, so a
    deposed zombie cannot serve. *)

type t

val create : Slice_sim.Engine.t -> ?sites:int list -> unit -> t
(** Own [sites] (default none) with no drains and an infinite lease
    under epoch 0: fencing is real only once a failure detector grants
    leases. The engine's clock is the lease clock. *)

val owned : t -> int list
(** Sorted. *)

val owns : t -> int -> bool
val own : t -> int -> unit

val disown : t -> int -> unit
(** Also lifts the site's drain. *)

val draining : t -> int -> bool

val begin_drain : t -> int -> unit
(** @raise Invalid_argument if the site is not owned here, so the
    draining sites are always a subset of the owned ones. *)

val end_drain : t -> int -> unit

val clear_drains : t -> unit
(** Lift every drain and keep ownership — what a crash does, so an
    aborted migration's donor serves the site again. *)

val admit : t -> int -> write:bool -> bool
(** The per-request site check: a write to a draining site counts a
    drain bounce, a site not owned here counts a misdirect bounce, and
    both return [false] (answer [SLICE_MISDIRECTED]); otherwise the
    site's load grows by one. Pass [~write:false] for any request a
    drain must not stop. *)

val load : t -> int -> int
(** Requests admitted for the site since the last {!reset_load}: the
    rebalancing signal. *)

val reset_load : t -> int -> unit
(** For a site migrated or seized away, so stale load cannot skew a
    later rebalance. *)

val total_load : t -> int
(** {!load} summed over the owned sites. *)

val set_lease : t -> epoch:int -> until:float -> unit
(** Grant or renew the lease: serve until sim-time [until] under fencing
    epoch [epoch]. *)

val lease_epoch : t -> int

val wedged : t -> bool
(** Engine time is past the lease: every request must bounce. A query;
    the bounce is counted by {!fence_bounce}. *)

val fence_bounce : t -> unit
val drain_bounces : t -> int
val misdirect_bounces : t -> int
val fence_bounces : t -> int
