(** Large-scale VANET scenarios: the paper's highway and city settings at
    10k+ nodes.

    A run advances a vehicular mobility model (bidirectional highway or
    Manhattan street grid), rebuilds the unit-disk graph through the spatial
    hash grid each round, executes one protocol round per mobility step, and
    polls the incremental checker ({!Dgs_spec.Incremental}) on
    structure-shared snapshots of the graph and views, so every
    report carries the verdicts of the configuration it ran.  The
    {!report} holds counts and verdicts only, never a clock: perfbench's
    [vanet_highway] workload times the same loop with repeats and splits
    it by phase ([sim.*], [graph.build_*], [mobility.step_*],
    [spec.poll_*], [gc.*]). *)

type scenario = Highway | City

val scenario_name : scenario -> string
(** ["highway"] or ["city"]. *)

val scenario_of_string : string -> scenario option
(** Inverse of {!scenario_name}. *)

val spec_of : scenario -> n:int -> range:float -> speed:float -> Dgs_mobility.Mobility.spec
(** Mobility preset sized so the mean degree stays around 8 regardless of
    [n]: a 6-lane bidirectional highway of length [n·range/4], or a square
    Manhattan grid of about [sqrt (n/8)] blocks of side [range]. *)

type report = {
  scenario : string;  (** {!scenario_name} of the scenario run *)
  nodes : int;  (** n *)
  rounds : int;  (** measured rounds (warmup excluded) *)
  jobs : int;  (** worker domains ([--jobs], 0 resolved to core count) *)
  shards : int;  (** logical shards the node set was partitioned into *)
  messages : int;  (** directed deliveries attempted *)
  computes : int;  (** node compute steps executed *)
  oracle_polls : int;  (** polls taken *)
  mean_degree : float;  (** 2·|E|/n of the final topology *)
  groups : int;  (** Ω groups in the final configuration *)
  agreement_ok : bool;  (** ΠA at the last poll *)
  safety_ok : bool;  (** ΠS at the last poll *)
  maximality_ok : bool;  (** ΠM at the last poll *)
  evictions : int;  (** view members removed across all rounds *)
  additions : int;  (** view members added across all rounds *)
  oracle_stats : Dgs_spec.Incremental.stats;  (** the oracle's work counters *)
}

val run :
  ?seed:int ->
  ?dmax:int ->
  ?range:float ->
  ?speed:float ->
  ?dt:float ->
  ?jitter:float ->
  ?warmup:int ->
  ?rounds:int ->
  ?oracle_every:int ->
  ?jobs:int ->
  ?shards:int ->
  ?make_trace:(int -> Dgs_trace.Trace.t) ->
  ?make_metrics:(int -> Dgs_metrics.Registry.t) ->
  scenario:scenario ->
  n:int ->
  unit ->
  report
(** Run one scenario.  Defaults: seed 1, dmax 3, range 2, speed 0.15,
    dt 1, jitter 0.1, warmup 10 rounds, 50 measured rounds, incremental
    oracle every 5 rounds with {!Dgs_spec.Incremental.create}'s default
    cross-check limit.  A final poll is added when the last measured round
    was not polled ([rounds] not a multiple of [oracle_every], or [0]), so
    the verdict fields always reflect the last configuration.

    [make_trace] builds one trace sink per shard index (default: null —
    the zero-cost path), exactly as in {!Dgs_sim.Sharded.create};
    [make_metrics] likewise builds one metrics registry per shard index
    (default: null), covering warmup and measured rounds — merge their
    snapshots with {!Dgs_metrics.Registry.merge}.

    The round loop runs on {!Dgs_sim.Sharded}: the node set is cut into
    [shards] spatially compact slabs ({!Dgs_sim.Sharded.spatial_partition}
    over the initial placement) executed by [jobs] worker domains
    ([jobs <= 0] resolves to the core count; [shards] defaults to the
    resolved [jobs] and must be [>= 1], else [Invalid_argument]).  The whole report except [jobs] and [shards] is
    identical for every [jobs]/[shards] choice. *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line human-readable rendering, used by [grp_sim vanet]. *)
