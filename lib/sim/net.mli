(** Event-driven GRP network runtime.

    Instantiates one {!Dgs_core.Grp_node.t} per node and drives the
    Algorithm GRP event loop on a discrete-event {!Engine}: a compute timer
    [Tc] of period {!tau_c} and a send timer [Ts] of period {!tau_s} per
    node, with random initial phases, over a lossy one-hop broadcast
    channel.  The topology is queried through a callback so mobility is
    reflected immediately; node churn (deactivation, reset, reactivation)
    models the appearing/disappearing nodes of the paper's dynamic
    system.

    A broadcast by [src] sends one copy to each current neighbour of
    [src] in the topology, in ascending id order, each independently
    subject to Bernoulli loss and a uniform delivery delay in
    [\[0.001, 0.01\]] — a simple abstraction of the paper's unreliable
    one-hop wireless channel (its fair-channel hypothesis corresponds to
    loss < 1 and periodic retransmission by the sender).  Audience, loss
    and delay are all decided at {e send} time: a copy already in flight
    is delivered even if the link it rode disappears or the loss rate
    changes before the delivery event fires (DESIGN.md Section 5 item
    18).  At delivery time a copy is a {e drop}, counted apart from both
    deliveries and channel losses, when its destination deactivated or
    was removed in flight or when frame corruption mutated it out of the
    wire grammar; so [deliveries] agrees exactly with what
    {!Dgs_core.Grp_node.receive} saw.  Each directed copy is one
    {!Engine} event.

    A runtime owns its engine: {!now} is its clock and {!fired} the
    number of callbacks it has run.  A trace sink given at {!create}
    receives the channel events — {!Dgs_trace.Trace.Msg_sent} per
    broadcast and [Msg_delivered] / [Msg_lost] / [Msg_dropped] per
    directed copy, stamped with the simulation time of the send (sends,
    losses) or of the delivery (deliveries, drops) — and is installed in
    every protocol node (view/quarantine/mark/merge events); the runtime
    stamps it with {!now} before each compute, send and delivery, the
    only callbacks that emit.  Broadcasts carry lineage ids minted by
    {!Dgs_trace.Trace.mint_lid} under an enabled sink ([-1] otherwise),
    handed to {!Dgs_core.Grp_node.receive_lid}. *)

type t

val tau_c : float
(** Compute period [Tc] of every node (1.0). *)

val tau_s : float
(** Send period [Ts] of every node (0.4, so [Ts ≤ Tc]). *)

type stats = {
  computes : int;  (** [compute()] invocations across all nodes *)
  view_removals : int;  (** evictions — the continuity metric *)
  broadcasts : int;  (** send operations *)
  deliveries : int;  (** per-receiver copies the protocol consumed *)
  losses : int;  (** per-receiver channel losses *)
  drops : int;
      (** per-receiver copies refused at delivery time (inactive or removed
          destination, corrupted frame) *)
}

val create :
  rng:Dgs_util.Rng.t ->
  config:Dgs_core.Config.t ->
  ?loss:float ->
  ?corruption:float ->
  ?trace:Dgs_trace.Trace.t ->
  ?metrics:Dgs_metrics.Registry.t ->
  topology:(unit -> Dgs_graph.Graph.t) ->
  nodes:Dgs_core.Node_id.t list ->
  unit ->
  t
(** Defaults: no loss, no frame corruption, no tracing, no metrics.
    [metrics] receives the [medium_*] channel counter families mirroring
    {!stats}, the [medium_loss_rate] gauge and the [medium_delivery_ns]
    timer around each delivery, is shared by every installed (or reset)
    node, and is handed to the runtime's {!Engine}.  Timers start with a
    uniform phase in their period.  [corruption] is the probability that
    a delivered frame passes through {!Dgs_core.Wire} with one byte
    mutated.  Raises [Invalid_argument] on a loss or corruption rate
    outside [\[0,1\]] or NaN ({!Dgs_util.Rng.check_rate}). *)

val now : t -> float
(** Current simulation time of the runtime's engine. *)

val fired : t -> int
(** Engine callbacks executed since {!create} ({!Engine.fired}) — the
    count the [dgs_check] fire-budget oracle reads. *)

val node : t -> Dgs_core.Node_id.t -> Dgs_core.Grp_node.t
(** Protocol state of one node.  Raises [Not_found] for unknown ids. *)

val node_ids : t -> Dgs_core.Node_id.t list
(** Sorted ids of all installed nodes, active or not. *)

val is_active : t -> Dgs_core.Node_id.t -> bool
(** Whether the node currently sends, receives and computes. *)

val views : t -> Dgs_core.Node_id.Set.t Dgs_core.Node_id.Map.t
(** Views of the active nodes. *)

val run_until : t -> float -> unit
(** Advance the runtime's engine to the given time ({!Engine.run_until}). *)

val deactivate : t -> Dgs_core.Node_id.t -> unit
(** The node stops sending, receiving and computing; its memory is kept
    (so a later {!activate} resumes with stale state — a transient
    fault).  Its timers are retired: each pending timer fires at most once
    more as a no-op, so a deactivated node consumes no engine events while
    down.  Copies in flight to it are counted as drops. *)

val activate : t -> Dgs_core.Node_id.t -> unit
(** Resume a deactivated node with fresh timer phases (no-op for unknown
    or already-active ids). *)

val reset_node : t -> Dgs_core.Node_id.t -> unit
(** Replace the protocol state by a fresh one (node reboot). *)

val add_node : t -> Dgs_core.Node_id.t -> unit
(** Create and activate a node unknown at {!create} time. *)

val remove_node : t -> Dgs_core.Node_id.t -> unit
(** Fully retire a node: its protocol state is discarded, its timers are
    retired by generation as in {!deactivate}, and copies in flight to it are counted as drops.  Unlike
    {!deactivate} the node is forgotten — a later {!add_node} of the same
    id starts from scratch.  No-op for unknown ids. *)

val set_loss : t -> float -> unit
(** Change the channel loss rate for subsequent broadcasts.  Raises
    [Invalid_argument] outside [\[0,1\]] or on NaN. *)

val loss : t -> float
(** The current channel loss rate. *)

val set_corruption : t -> float -> unit
(** Change the frame-corruption probability mid-run (loss/corruption ramps
    in fuzzed schedules).  Copies already in flight are judged with the
    rate current at their delivery time.  Raises [Invalid_argument]
    outside [\[0,1\]] or on NaN. *)

val corruption : t -> float
(** The current frame-corruption probability. *)

val on_step :
  t ->
  (time:float -> Dgs_core.Grp_node.t -> Dgs_core.Grp_node.step_info -> unit) ->
  unit
(** Observer invoked after every compute (continuity monitoring). *)

val stats : t -> stats
(** Counters since creation. *)

val state_signature : t -> Dgs_core.Grp_node.state list
(** The {!Dgs_core.Grp_node.state} snapshot of every active node, in id
    order.  Two signatures taken at different times are equal under
    [List.equal Grp_node.same_state] exactly when the active set and
    every list, view and quarantine table are unchanged (quiescence
    detection).  Snapshots share the nodes' immutable state, so a poll
    allocates a few words per active node and builds no string. *)
