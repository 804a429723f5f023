(** E6 — Group stability: GRP vs. periodically reclustered k-hop baselines.

    The same mobility trace is run through GRP (continuous protocol) and
    replayed through Max-Min d-cluster and greedy lowest-ID k-hop
    clustering recomputed every period.  The paper's motivation — "it is
    preferable to maintain the composition of existing groups" even when
    another partitioning would be better — predicts that GRP's view
    lifetime beats the baselines and that GRP evicts members only on
    ΠT violations while the baselines reshuffle membership freely. *)

val reclustered :
  Dgs_baselines.Recluster.algorithm ->
  period:int ->
  Dgs_graph.Graph.t list ->
  Dgs_spec.Configuration.t list
(** One configuration per topology snapshot: the baseline's views,
    recomputed on every [period]-th snapshot (the first included) and
    frozen in between. *)

val replay :
  dmax:int ->
  start:Dgs_spec.Configuration.t ->
  Dgs_spec.Configuration.t list ->
  Dgs_spec.Membership.summary
(** The {!Dgs_spec.Membership} ledger of a run that starts at [start] and
    reaches each configuration of the list in one round.  E6 scores a
    baseline with [start] its first configuration (the first clustering
    is a round of its own) and GRP with {!Harness.run_mobility}, which
    feeds the same ledger. *)

val run : ?quick:bool -> ?jobs:int -> unit -> Dgs_metrics.Table.t list
