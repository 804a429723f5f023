(** The synchronous-round executor: one broadcast → deliver → compute
    loop, sharded across domains.

    The node set is partitioned into [shards] logical shards (spatially,
    via {!spatial_partition}, or by any caller-supplied assignment); each
    shard owns the protocol nodes homed to it, and up to [jobs] worker
    domains execute the shards through {!Dgs_parallel.Pool}.  A round
    runs in two globally synchronized parallel phases:

    + {b broadcast} (parallel) — every node builds its message; copies
      whose destination is homed on another shard go to the shard's
      outbox;
    + {b barrier exchange} (main thread) — outboxes are routed to the
      destination shards and sorted into ascending [(src, dst)] order
      (the deterministic merge order of the [--jobs] contract);
    + {b deliver + compute} (parallel) — each shard hands its same-shard
      copies to {!Dgs_core.Grp_node.receive_lid} (sources ascending, then
      neighbours ascending), then the boundary copies, then runs the
      computes of its active nodes.

    Both parallel phases join before the next begins, so a compute sees
    exactly this round's messages.  Every event round [r] traces is
    stamped [r], counting from 1.  Every traced event belongs to the
    shard of the node it is about, so the merged per-shard traces hold
    the same events for every [shards] and [jobs].

    {!round} is the fair-channel schedule with per-node jitter;
    {!step} takes the schedule from the caller: [sends] transmissions per
    round, a per-copy channel and the set of nodes that compute.
    {!Rounds} is {!step} on one shard, driven by one caller rng.

    {b Determinism.}  Results of {!round} are a function of
    [(seed, graph sequence, jitter)] only — never of [shards] or
    [jobs].  Every behavior-affecting draw (compute jitter) comes from a
    per-node stream ([Rng.split_at] keyed by node id).  Message delivery
    per receiver is order-insensitive (one message per sender per round,
    keyed by sender), so the local/boundary split cannot be observed by
    the protocol.  The QCheck partition-invariance property and the
    jobs∈{1,2,4} byte-identity test pin this contract.  A caller channel
    or several sends need one shard: a lossy channel that does not
    depend on the partition needs per-{e edge} RNG streams. *)

type t

val create :
  config:Dgs_core.Config.t ->
  ?shards:int ->
  ?jobs:int ->
  ?seed:int ->
  ?shard_of:(Dgs_core.Node_id.t -> int) ->
  ?make_trace:(int -> Dgs_trace.Trace.t) ->
  ?make_metrics:(int -> Dgs_metrics.Registry.t) ->
  Dgs_graph.Graph.t ->
  t
(** One protocol node per graph node, homed to shard
    [shard_of v mod shards] (default assignment: [v mod shards]) — fixed
    for the node's lifetime, so per-shard trace sinks and metrics
    registries are only ever touched by one worker at a time.  [shards]
    (default 1) is the number of logical shards, [jobs] (default 1,
    clamped to ≥ 1) the number of worker domains executing them; results
    do not depend on either.  [make_trace] / [make_metrics] (defaults: null)
    build one sink / registry per shard index; merge the per-shard
    registries with {!Dgs_metrics.Registry.merge}.
    @raise Invalid_argument on [shards < 1]. *)

val config : t -> Dgs_core.Config.t
val graph : t -> Dgs_graph.Graph.t

val jobs : t -> int
(** Worker domains used per parallel phase. *)

val set_graph : t -> Dgs_graph.Graph.t -> unit
(** Install a new topology.  New nodes are created fresh and homed by
    the partition function; departed nodes keep their state in case they
    come back (a node that reappears with stale state is exactly a
    transient fault).  Emits no trace event. *)

val node : t -> Dgs_core.Node_id.t -> Dgs_core.Grp_node.t
(** Raises [Not_found] for unknown ids. *)

val node_ids : t -> Dgs_core.Node_id.t list
(** Sorted ids of nodes present in the current graph. *)

val views : t -> Dgs_core.Node_id.Set.t Dgs_core.Node_id.Map.t
(** Current views of the nodes in the graph. *)

(** What the channel does with one directed copy. *)
type fate =
  | Lose  (** Lost in the channel: traced [Msg_lost]. *)
  | Drop
      (** Reached the destination's runtime but refused before the
          protocol saw it, e.g. a frame corrupted out of the wire grammar:
          traced [Msg_dropped]. *)
  | Deliver  (** Delivered as sent: traced [Msg_delivered]. *)
  | Deliver_as of Dgs_core.Message.t
      (** Delivered altered (a corrupted frame that still parses): traced
          [Msg_delivered]. *)

val step :
  ?sends:int ->
  ?channel:(Dgs_core.Message.t -> fate) ->
  active:(Dgs_core.Node_id.t -> bool) ->
  t ->
  Dgs_core.Grp_node.step_info Dgs_core.Node_id.Map.t
(** Execute one round under the caller's schedule and report the step
    outcome of each node that computed.  Every node broadcasts [sends]
    (default 1) times, each transmission its own lineage; [channel]
    (default: deliver every copy) decides each copy's fate, called in
    (transmission, source, destination) order; then every node for which
    [active] holds computes, called in ascending id order after every
    copy.  Nodes that do not compute keep accumulating messages, exactly
    as a slow timer would.
    @raise Invalid_argument when [sends < 1], or when a [channel] or
    [sends > 1] is given to a runner with more than one shard. *)

val round :
  ?jitter:float -> t -> Dgs_core.Grp_node.step_info Dgs_core.Node_id.Map.t
(** {!step} with the fair channel and one send: [jitter] (default 0)
    skips each node's compute independently, drawn from the node's own
    stream — one draw per node per round, so the skip pattern is
    partition-invariant.
    @raise Invalid_argument when [jitter] is outside [0, 1] or NaN. *)

val run : ?jitter:float -> t -> int -> unit
(** [run t n] executes [n] rounds, discarding the per-round step infos. *)

val messages_sent : t -> int
(** Total directed copies sent so far (every transmission counted),
    summed over shards. *)

val barrier_s : t -> float
(** Cumulative wall-clock seconds spent in the main-thread barrier
    exchange (routing + sorting boundary copies) — the coordination
    overhead in perfbench's [sim.*] attribution. *)

val broadcast_s : t -> float
(** Cumulative wall-clock seconds of the parallel broadcast phase
    (message build + outbox fill), measured on the main thread around
    the fork/join — one leg of perfbench's [sim.*] attribution of round
    time. *)

val deliver_s : t -> float
(** Cumulative wall-clock seconds of the parallel deliver + compute
    phase, measured like {!broadcast_s}.  [broadcast_s + barrier_s +
    deliver_s] accounts for (nearly) all of a round's wall clock. *)

val spatial_partition :
  shards:int ->
  range:float ->
  Dgs_util.Geom.point array ->
  Dgs_core.Node_id.t ->
  int
(** [spatial_partition ~shards ~range positions] assigns node [i] (the
    index into [positions]) to one of [shards] spatially compact slabs:
    nodes are ordered by their {!Dgs_util.Spatial_grid} cell (side
    [range]) along [(cx, cy)] and the sequence is cut into contiguous
    runs of roughly equal size, only ever at cell boundaries — so only
    nodes within one radio range of a cut produce boundary traffic.
    Ids outside the array map to shard 0.
    @raise Invalid_argument on [shards < 1] or a non-positive [range]. *)
