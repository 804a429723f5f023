(** Event-driven GRP network runtime.

    Instantiates one {!Dgs_core.Grp_node.t} per node and drives the
    Algorithm GRP event loop on a discrete-event {!Engine}: a compute timer
    [Tc] of period [tau_c] and a send timer [Ts] of period [tau_s ≤ tau_c]
    per node, with random initial phases, over a lossy broadcast
    {!Medium}.  The topology is queried through a callback so mobility is
    reflected immediately; node churn (deactivation, reset, reactivation)
    models the appearing/disappearing nodes of the paper's dynamic
    system.

    A trace sink given at {!create} is installed in the medium (channel
    events) and in every protocol node (view/quarantine/mark/merge
    events); the runtime stamps it with the engine clock before each
    compute, so a sink shared with the engine is not required for correct
    timestamps. *)

type t

type stats = {
  computes : int;  (** [compute()] invocations across all nodes *)
  view_removals : int;  (** evictions — the continuity metric *)
  medium : Medium.stats;  (** channel counters *)
}

val create :
  engine:Engine.t ->
  rng:Dgs_util.Rng.t ->
  config:Dgs_core.Config.t ->
  ?tau_c:float ->
  ?tau_s:float ->
  ?loss:float ->
  ?corruption:float ->
  ?delay_min:float ->
  ?delay_max:float ->
  ?trace:Dgs_trace.Trace.t ->
  ?metrics:Dgs_metrics.Registry.t ->
  topology:(unit -> Dgs_graph.Graph.t) ->
  nodes:Dgs_core.Node_id.t list ->
  unit ->
  t
(** Defaults: [tau_c = 1.0], [tau_s = 0.4], no loss, no frame corruption,
    delays in [\[0.001, 0.01\]], no tracing, no metrics.  [metrics] is
    shared by the medium and every installed (or reset) node — the engine
    takes its own at {!Engine.create}.  Timers start with a uniform
    phase in their period.  [corruption] is the probability that a
    delivered frame passes through {!Dgs_core.Wire} with one byte mutated.
    Raises [Invalid_argument] on [tau_s > tau_c] or a corruption rate
    outside [\[0,1\]]. *)

val engine : t -> Engine.t
(** The engine driving this runtime's timers. *)

val node : t -> Dgs_core.Node_id.t -> Dgs_core.Grp_node.t
(** Protocol state of one node.  Raises [Not_found] for unknown ids. *)

val node_ids : t -> Dgs_core.Node_id.t list
(** Sorted ids of all installed nodes, active or not. *)

val is_active : t -> Dgs_core.Node_id.t -> bool
(** Whether the node currently sends, receives and computes. *)

val views : t -> Dgs_core.Node_id.Set.t Dgs_core.Node_id.Map.t
(** Views of the active nodes. *)

val run_until : t -> float -> unit
(** Advance the underlying engine. *)

val deactivate : t -> Dgs_core.Node_id.t -> unit
(** The node stops sending, receiving and computing; its memory is kept
    (so a later {!activate} resumes with stale state — a transient
    fault).  Its timers are retired: each pending timer fires at most once
    more as a no-op, so a deactivated node consumes no engine events while
    down.  Copies in flight to it are counted as drops by the
    {!Medium}. *)

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
(** Change the channel loss rate mid-run. *)

val set_corruption : t -> float -> unit
(** Change the frame-corruption probability mid-run (loss/corruption ramps
    in fuzzed schedules).  Copies already in flight are judged with the
    rate current at their delivery time.  Raises [Invalid_argument]
    outside [\[0,1\]]. *)

val corruption : t -> float
(** The current frame-corruption probability. *)

val on_step :
  t ->
  (time:float -> Dgs_core.Grp_node.t -> Dgs_core.Grp_node.step_info -> unit) ->
  unit
(** Observer invoked after every compute (continuity monitoring). *)

val stats : t -> stats
(** Counters since creation. *)

val state_signature : t -> string
(** Digest of all lists, views and quarantines of active nodes; two equal
    signatures at different times mean the protocol state is unchanged
    (used for convergence detection). *)
