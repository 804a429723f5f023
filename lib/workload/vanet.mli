(** Large-scale VANET scenarios: the paper's highway and city settings at
    10k+ nodes.

    A run advances a vehicular mobility model (bidirectional highway or
    Manhattan street grid), rebuilds the unit-disk graph through the spatial
    hash grid each round, executes one protocol round per mobility step, and
    polls an oracle on structure-shared snapshots — by default the
    incremental checker fed with the round's view-change events.  The
    {!report} separates wall-clock into graph build, protocol rounds and
    oracle time, which is exactly the split the E12 scaling experiment and
    the [vanet] benchmark rows commit. *)

type scenario = Highway | City

val scenario_name : scenario -> string
(** ["highway"] or ["city"]. *)

val scenario_of_string : string -> scenario option
(** Inverse of {!scenario_name}. *)

val spec_of : scenario -> n:int -> range:float -> speed:float -> Dgs_mobility.Mobility.spec
(** Mobility preset sized so the mean degree stays around 8 regardless of
    [n]: a 6-lane bidirectional highway of length [n·range/4], or a square
    Manhattan grid of about [sqrt (n/8)] blocks of side [range]. *)

type oracle = [ `Off | `Full | `Incremental ]
(** Which checker the periodic poll runs: none, the full {!Dgs_spec.Predicates}
    recompute, or {!Dgs_spec.Incremental}. *)

type report = {
  scenario : string;  (** {!scenario_name} of the scenario run *)
  nodes : int;  (** n *)
  rounds : int;  (** measured rounds (warmup excluded) *)
  jobs : int;  (** worker domains ([--jobs], 0 resolved to core count) *)
  shards : int;  (** logical shards the node set was partitioned into *)
  wall_s : float;  (** wall-clock of the measured loop *)
  messages : int;  (** directed deliveries attempted *)
  computes : int;  (** node compute steps executed *)
  events_per_s : float;  (** (messages + computes) / wall *)
  node_steps_per_s : float;  (** n·rounds / wall *)
  graph_build_s : float;  (** time rebuilding the unit-disk graph *)
  set_graph_s : float;  (** time installing each round's graph into the executor *)
  round_s : float;  (** time in protocol rounds *)
  broadcast_s : float;  (** round time in the parallel broadcast phase *)
  deliver_s : float;  (** round time in the parallel deliver + compute phase *)
  oracle_s : float;  (** time in snapshot + oracle polls *)
  barrier_s : float;  (** time in the sharded barrier exchange *)
  oracle_polls : int;  (** polls taken *)
  minor_words_per_round : float;
      (** main-domain minor allocation per measured round (words); covers
          the whole run at [jobs = 1], the coordination thread only above *)
  major_words_per_round : float;  (** main-domain major allocation per round *)
  promoted_words_per_round : float;  (** main-domain promotion per round *)
  mean_degree : float;  (** 2·|E|/n of the final topology *)
  groups : int;  (** Ω groups in the final configuration *)
  agreement_ok : bool;  (** ΠA at the last poll (true when oracle off) *)
  safety_ok : bool;  (** ΠS at the last poll *)
  maximality_ok : bool;  (** ΠM at the last poll *)
  evictions : int;  (** view members removed across all rounds *)
  additions : int;  (** view members added across all rounds *)
  oracle_stats : Dgs_spec.Incremental.stats option;
      (** cache counters when the incremental oracle ran *)
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
  ?oracle:oracle ->
  ?oracle_every:int ->
  ?naive_graph:bool ->
  ?jobs:int ->
  ?shards:int ->
  ?make_trace:(int -> Dgs_trace.Trace.t) ->
  ?make_metrics:(int -> Dgs_metrics.Registry.t) ->
  ?profile_out:string ->
  scenario:scenario ->
  n:int ->
  unit ->
  report
(** Run one scenario.  Defaults: seed 1, dmax 3, range 2, speed 0.15,
    dt 1, jitter 0.1, warmup 10 rounds, 50 measured rounds, incremental
    oracle every 5 rounds with {!Dgs_spec.Incremental.create}'s default
    cross-check limit.  [naive_graph] switches
    the per-round rebuild to the O(n²) reference scan — the baseline leg of
    the scaling comparisons.  A final poll is added when [rounds] is not a
    multiple of [oracle_every] so the verdict fields always reflect the last
    configuration.

    [make_trace] builds one trace sink per shard index (default: null —
    the zero-cost path), exactly as in {!Dgs_sim.Sharded.create};
    [make_metrics] likewise builds one metrics registry per shard index
    (default: null), covering warmup and measured rounds — merge their
    snapshots with {!Dgs_metrics.Registry.merge}.
    [profile_out] writes the measured window's round-time profile as
    Chrome trace_event JSON ({!Dgs_trace.Chrome_trace}): per-round
    graph_build / set_graph / broadcast / barrier / deliver+compute
    spans on lane 0 and each shard's in-worker phase spans on lane
    [shard + 1].

    The round loop runs on {!Dgs_sim.Sharded}: the node set is cut into
    [shards] spatially compact slabs ({!Dgs_sim.Sharded.spatial_partition}
    over the initial placement) executed by [jobs] worker domains
    ([jobs <= 0] resolves to the core count; [shards] defaults to the
    resolved [jobs]).  Verdicts, view evolution, message counts and the
    events/s denominator are identical for every [jobs]/[shards] choice —
    only the wall-clock split changes; [barrier_s] isolates the exchange
    overhead. *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line human-readable rendering, used by [grp_sim vanet]. *)

val pp_profile : Format.formatter -> report -> unit
(** {!pp_report} followed by the round-time attribution lane: the
    set_graph / broadcast / barrier / deliver+compute split of [round_s]
    and the per-round GC allocation rates — what [grp_sim vanet
    --profile] prints.  At [jobs = 1] every phase runs inline on the
    main domain, so the GC words account for the full workload; at
    [jobs > 1] worker-domain allocation is not included. *)
