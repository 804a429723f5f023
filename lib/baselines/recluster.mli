(** Periodic-reclustering adapter.

    The k-clustering baselines are static algorithms; on a dynamic topology
    they are deployed by re-running them every period.  This module names
    the two algorithms and clusters one snapshot into per-node views, which
    {!Dgs_workload.E6_baselines} replays through the same membership ledger
    as GRP. *)

type algorithm =
  | Maxmin of int  (** Max-Min with parameter d *)
  | Lowest_id of int  (** greedy lowest-ID with parameter k *)

val algorithm_name : algorithm -> string

val cluster :
  algorithm -> Dgs_graph.Graph.t -> Dgs_core.Node_id.Set.t Dgs_core.Node_id.Map.t
(** One-shot clustering of a snapshot, as a views map. *)
