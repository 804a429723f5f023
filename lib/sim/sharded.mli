(** Sharded synchronous-round executor: one simulation, many domains.

    The node set is partitioned into [shards] logical shards (spatially,
    via {!spatial_partition}, or by any caller-supplied assignment); each
    shard owns the protocol nodes homed to it, and up to [jobs] worker
    domains execute the shards through {!Dgs_parallel.Pool}.  A round is
    the synchronous broadcast → deliver → compute loop of {!Rounds},
    split into two globally synchronized parallel phases:

    + {b broadcast} (parallel) — at the round tick every node builds its
      message; copies whose destination is homed on another shard go to
      the shard's outbox;
    + {b barrier exchange} (main thread) — outboxes are routed to the
      destination shards and sorted into ascending [(src, dst)] order
      (the round tick is constant, so this is the deterministic
      [(tick, src, dst)] merge order of the [--jobs] contract);
    + {b deliver + compute} (parallel) — each shard hands its same-shard
      copies to {!Dgs_core.Grp_node.receive_lid} (sources ascending, then
      neighbours ascending), then the boundary copies, then runs its
      computes.

    Both parallel phases join before the next begins, so a compute sees
    exactly this round's messages.  With [jitter = 0] the per-node final
    state is identical to {!Rounds.round} on the same graph sequence.
    Traced events of a round are stamped with its tick (sends) or with
    [tick + 0.5] (deliveries, protocol events).

    {b Determinism.}  Results are a function of [(seed, graph sequence,
    jitter)] only — never of [shards] or [jobs].  Every
    behavior-affecting draw (compute jitter) comes from a per-node stream
    ([Rng.split_at] keyed by node id).  Message delivery per receiver is
    order-insensitive (one message per sender per round, keyed by
    sender), so the local/boundary split cannot be observed by the
    protocol.  The QCheck partition-invariance property and the
    jobs∈{1,2,4} byte-identity test pin this contract.

    The idealized fair channel only: no loss, corruption or multi-send —
    those belong to {!Rounds} and {!Net}.  Lossy sharded channels would
    need per-{e edge} RNG streams to stay partition-invariant. *)

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
    come back, exactly as in {!Rounds.set_graph}. *)

val node : t -> Dgs_core.Node_id.t -> Dgs_core.Grp_node.t
(** Raises [Not_found] for unknown ids. *)

val node_ids : t -> Dgs_core.Node_id.t list
(** Sorted ids of nodes present in the current graph. *)

val views : t -> Dgs_core.Node_id.Set.t Dgs_core.Node_id.Map.t
(** Current views of the nodes in the graph. *)

val round :
  ?jitter:float -> t -> Dgs_core.Grp_node.step_info Dgs_core.Node_id.Map.t
(** Execute one round and report each node's step outcome (jitter-skipped
    nodes are absent, as in {!Rounds.round}).  [jitter] (default 0) skips
    each node's compute independently, drawn from the node's own stream —
    one draw per node per round, so the skip pattern is
    partition-invariant.
    @raise Invalid_argument when [jitter] is outside [0, 1]. *)

val run : ?jitter:float -> t -> int -> unit
(** [run t n] executes [n] rounds, discarding the per-round step infos. *)

val messages_sent : t -> int
(** Total directed deliveries attempted so far, summed over shards —
    same accounting as {!Rounds.messages_sent}. *)

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
