(** Lossy broadcast radio medium.

    A broadcast by [src] is delivered to every node currently in [src]'s
    vicinity, independently subject to Bernoulli loss and a uniform delivery
    delay — a simple abstraction of the paper's unreliable one-hop wireless
    channel (its fair-channel hypothesis corresponds to loss < 1 and
    periodic retransmission by the sender).

    The vicinity is queried through a callback at send time, so mobility is
    reflected instantaneously.  Directed (asymmetric) links are supported:
    the callback returns the set of nodes able to hear [src].

    Audience, loss and delay are all decided at {e send} time: a copy
    already in flight is delivered even if the link it rode disappears or
    the loss rate changes before the delivery event fires.  This is a
    deliberate model decision — the frame is already in the air — and it
    keeps the channel's random decisions independent of future topology
    (DESIGN.md Section 5 item 18).

    Delivery is two-phase: the channel decides loss and delay at send time,
    and the receiver's runtime decides at delivery time whether the
    protocol actually consumes the copy (the [deliver] callback returns
    [false] when the destination deactivated or was removed while the copy
    was in flight, or when the frame was corrupted out of the wire
    grammar).  Refused copies are counted as {e drops}, separate from both
    deliveries and channel losses, so [deliveries] agrees exactly with what
    {!Dgs_core.Grp_node.receive} saw.  The four {!stats} counts run from
    creation and never reset; they equal the [medium_*_total] registry
    counters of a registry given to this medium alone.

    With a trace sink installed the medium emits
    {!Dgs_trace.Trace.Msg_sent} per broadcast and [Msg_delivered] /
    [Msg_lost] / [Msg_dropped] per directed copy, stamped with the
    simulation time of the send (sends, losses) or of the delivery
    (deliveries, drops). *)

type 'msg t

type stats = {
  broadcasts : int;  (** send operations *)
  deliveries : int;  (** per-receiver copies the protocol consumed *)
  losses : int;  (** per-receiver channel losses *)
  drops : int;
      (** per-receiver copies refused at delivery time (inactive or removed
          destination, corrupted frame) *)
}

val create :
  engine:Engine.t ->
  rng:Dgs_util.Rng.t ->
  ?loss:float ->
  ?delay_min:float ->
  ?delay_max:float ->
  ?trace:Dgs_trace.Trace.t ->
  ?metrics:Dgs_metrics.Registry.t ->
  audience:(int -> int list) ->
  deliver:(dst:int -> lid:int -> 'msg -> bool) ->
  unit ->
  'msg t
(** [audience src] lists the nodes in whose vicinity [src] currently is;
    [deliver] is invoked at the scheduled delivery time — [lid] is the
    copy's provenance lineage id ([-1] when tracing is off), to be handed
    to {!Dgs_core.Grp_node.receive_lid} — and returns whether
    the protocol consumed the copy ([false] = counted as a drop).  [trace]
    (default {!Dgs_trace.Trace.null}) receives the channel events.
    [metrics] (default {!Dgs_metrics.Registry.null}) receives the
    [medium_*] counter families mirroring {!stats}, the
    [medium_loss_rate] gauge, and the [medium_delivery_ns] timer around
    the [deliver] callback.  Each directed copy is one {!Engine} event. *)

val broadcast : 'msg t -> src:int -> 'msg -> int
(** Send one message to the current audience of [src] (self-delivery is
    suppressed); each copy independently subject to loss and delay.
    Returns the broadcast's freshly minted lineage id — [-1] when tracing
    is off (ids are only minted, and the per-source counters only
    touched, under an enabled sink).  Ids are campaign-unique: minted by
    {!Dgs_trace.Trace.mint_lid} from the medium's per-source counters. *)

val set_loss : 'msg t -> float -> unit
(** Change the loss probability for subsequent broadcasts.  Raises
    [Invalid_argument] outside [\[0,1\]]. *)

val stats : 'msg t -> stats
(** Counters since creation. *)
