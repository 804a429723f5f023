(** Shared machinery for the experiments E1-E8.

    Experiments run the protocol either on a static topology until
    convergence (round runner with seeded jitter — DESIGN.md Section 5,
    item 13) or over a mobility trace while monitoring the dynamic
    predicates. *)

val snapshot : Dgs_sim.Rounds.t -> Dgs_graph.Graph.t -> Dgs_spec.Configuration.t
(** Configuration (graph + views) of the current runner state.  Builds a
    fresh views map on every call; for repeated polling at scale use
    {!Snapshotter}. *)

(** Structure-shared configuration snapshots: successive polls reuse the
    previous views map and only touch entries whose view actually changed,
    so polling no longer copies whole configurations.  The configurations
    produced are {!snapshot}-equal; on top of the allocation savings, the
    pointer-equal unchanged views let {!Dgs_spec.Incremental}'s
    configuration diff short-circuit per node. *)
module Snapshotter : sig
  type t
  (** Carries the previous poll's views map between polls. *)

  val create : unit -> t
  (** A snapshotter with an empty history; the first poll pays full cost. *)

  val snapshot : t -> Dgs_sim.Rounds.t -> Dgs_graph.Graph.t -> Dgs_spec.Configuration.t
  (** Like {!val:Harness.snapshot}, sharing all unchanged views with the
      previous call's result. *)

  val snapshot_views :
    t ->
    ids:Dgs_core.Node_id.t list ->
    view:(Dgs_core.Node_id.t -> Dgs_core.Node_id.Set.t) ->
    Dgs_graph.Graph.t ->
    Dgs_spec.Configuration.t
  (** Runner-agnostic form: [ids] are the nodes present and [view] reads a
      node's current view — how {!Dgs_workload.Vanet} polls a
      {!Dgs_sim.Sharded} run.  {!snapshot} is this with the
      {!Dgs_sim.Rounds} accessors. *)
end

val mergeable_pairs : dmax:int -> Dgs_spec.Configuration.t -> int
(** Unordered pairs of distinct groups of the configuration whose union
    has diameter at most [dmax] in its graph — the merges ΠM still
    demands (E3's and E4's "mergeable pairs left"). *)

type convergence = {
  rounds : int option;  (** [None] when the round budget ran out *)
  messages : int;  (** directed deliveries attempted *)
  legitimate : bool;  (** ΠA ∧ ΠS ∧ ΠM on the final configuration *)
  violation : Dgs_spec.Predicates.violation option;
      (** the first of ΠA, ΠS, ΠM the final configuration violates, as
          {!Dgs_spec.Predicates.legitimate} reports it; [None] exactly
          when [legitimate] *)
  agree_safe : bool;
      (** ΠA ∧ ΠS only — in dense graphs ΠM can be conservatively missed
          (DESIGN.md Section 5) while agreement and safety must always
          hold *)
  groups : int;
  mean_group_size : float;
}

val converge :
  ?jitter:float ->
  ?max_rounds:int ->
  ?trace:Dgs_trace.Trace.t ->
  ?metrics:Dgs_metrics.Registry.t ->
  config:Dgs_core.Config.t ->
  seed:int ->
  Dgs_graph.Graph.t ->
  convergence
(** Fresh network on the given topology, run to quiescence.  Default
    jitter 0.1, no loss, budget 5000 rounds.  [trace] is installed in the
    round runner (and so in every node); times are round numbers.
    [metrics] likewise reaches every node's registry handles. *)

type mobility_run = {
  steps : int;
  pt_preserving : int;  (** transitions where ΠT held *)
  pt_violating : int;
  evictions_under_pt : int;
      (** view evictions while ΠT has held over the protocol's whole
          reaction horizon (2·Dmax+2 rounds) — the best-effort theorem says
          this must be 0; evictions during or shortly after a breach are
          reactions to it and attributed to the breach *)
  mean_groups : float;
  mean_group_size : float;
  churn : Dgs_spec.Membership.summary;
      (** the run's {!Dgs_spec.Membership} ledger: evictions, additions,
          view lifetimes, stale members, and unjustified evictions —
          members dropped by a node whose view before the round still had
          diameter ≤ Dmax in the round's graph, so nothing in the topology
          forced them out *)
}

val run_mobility :
  ?warmup:int ->
  ?trace:Dgs_trace.Trace.t ->
  ?metrics:Dgs_metrics.Registry.t ->
  config:Dgs_core.Config.t ->
  seed:int ->
  spec:Dgs_mobility.Mobility.spec ->
  n:int ->
  rounds:int ->
  unit ->
  mobility_run
(** One protocol round, under jitter 0.1, per unit-time mobility step;
    nodes are linked within radio range 2.0.  [warmup] rounds (default
    30) let the initial convergence finish before measuring. *)

val graph_snapshots :
  seed:int ->
  spec:Dgs_mobility.Mobility.spec ->
  n:int ->
  every:int ->
  rounds:int ->
  Dgs_graph.Graph.t list
(** The topology trace alone (one snapshot every [every] steps of the
    same unit time and range as {!run_mobility}) — used to feed the
    reclustering baselines with exactly the workload GRP saw. *)

val rgg :
  seed:int -> n:int -> ?density:float -> unit -> Dgs_graph.Graph.t
(** Connected random geometric graph with ~[density] expected neighbors
    per node (default 6.0); retries seeds deterministically until
    connected. *)
