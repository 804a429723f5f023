(** Synchronous rounds driven by one caller rng.

    One round = every node broadcasts its message, every node receives
    from each current neighbor (optionally subject to loss and
    corruption), then every node not skipped by jitter runs [compute]:
    one compute timer = one round, which makes stabilization arguments
    and tests deterministic.  The event-driven runtime {!Net} relaxes it.
    A runner is a one-shard, one-job {!Sharded} runner whose schedule
    ({!Sharded.step}) draws everything from the rng given to {!round}. *)

type t

val create :
  config:Dgs_core.Config.t ->
  ?trace:Dgs_trace.Trace.t ->
  ?metrics:Dgs_metrics.Registry.t ->
  Dgs_graph.Graph.t ->
  t
(** One protocol node per graph node.  [trace] (default
    {!Dgs_trace.Trace.null}) is installed in every node and receives the
    channel events of each round; every event of round [r] is stamped
    [r] (round 1 is the first round). *)

val graph : t -> Dgs_graph.Graph.t
(** The current communication topology. *)

val set_graph : t -> Dgs_graph.Graph.t -> unit
(** Install a new topology (dynamic network).  Nodes present in the new
    graph but unknown to the runner are created fresh; protocol state of
    departed nodes is kept in case they come back (a node that reappears
    with stale state is exactly a transient fault).  Emits no trace
    event: the topology shows in the channel events of the next round. *)

val node : t -> Dgs_core.Node_id.t -> Dgs_core.Grp_node.t
(** Raises [Not_found] for unknown ids. *)

val node_ids : t -> Dgs_core.Node_id.t list
(** Sorted ids of nodes present in the current graph. *)

val views : t -> Dgs_core.Node_id.Set.t Dgs_core.Node_id.Map.t
(** Current views of the nodes in the graph. *)

val round :
  ?loss:float ->
  ?jitter:float ->
  ?corruption:float ->
  ?sends:int ->
  ?rng:Dgs_util.Rng.t ->
  t ->
  Dgs_core.Grp_node.step_info Dgs_core.Node_id.Map.t
(** Execute one round and report each node's step outcome.  [loss] drops
    each directed delivery independently; [jitter] skips each node's
    compute independently with the given probability, emulating the phase
    drift of real timers — perfectly synchronous rounds are an adversarial
    schedule outside the paper's timer model, under which symmetric merge
    races can livelock (DESIGN.md Section 5).  [rng] required when a
    rate is > 0; skipped nodes keep accumulating messages (one-message
    channel per sender), exactly as a slow timer would.  [sends] (default
    1) transmissions happen per compute round, modelling the paper's
    [Ts <= Tc]: under loss a neighbor misses a compute period only when
    all its transmissions in it are lost.  [corruption] routes each
    delivery through the {!Dgs_core.Wire} frame format with one byte
    flipped with the given probability; unparsable frames are dropped
    (traced [Msg_dropped]).  Draw order: per copy, in (send, src, dst)
    order, a loss draw, then a corruption draw if the copy was not lost;
    then one jitter draw per node in id order.  Raises [Invalid_argument],
    before the round changes any state, when [sends < 1], a rate is
    outside [\[0,1\]] or NaN, or a rate is positive without [rng]. *)

val run :
  ?loss:float ->
  ?jitter:float ->
  ?corruption:float ->
  ?sends:int ->
  ?rng:Dgs_util.Rng.t ->
  t ->
  int ->
  unit
(** [run t n] executes [n] rounds, discarding the per-round step infos. *)

val run_until_stable :
  ?loss:float ->
  ?jitter:float ->
  ?corruption:float ->
  ?sends:int ->
  ?rng:Dgs_util.Rng.t ->
  ?on_round:(int -> unit) ->
  ?max_rounds:int ->
  t ->
  int option
(** Rounds executed until every node's list, view and quarantine table
    stay unchanged ({!Dgs_core.Grp_node.same_state}) for
    {!Dgs_core.Grp_node.quiet_rounds} (Dmax+5) consecutive rounds;
    [None] when [max_rounds] (default 10_000) is exhausted first.  The
    count excludes the confirmation tail, so [Some r] means [r + Dmax + 5]
    rounds were executed.  Sound on every run it was checked on, but blind
    to the gate and cooldown counters, whose 2·Dmax+2 window exceeds it for
    Dmax > 3.  [on_round] is invoked after each executed round
    with its 1-based index — the hook the CLI uses to feed the
    {!Dgs_spec.Monitor} a per-round configuration snapshot. *)

val messages_sent : t -> int
(** Total directed copies sent so far (every transmission counted). *)
