(** The membership ledger: view churn over a run, folded one
    configuration per round.

    The one place evictions, additions, view lifetimes, stale members and
    unjustified evictions are counted, whatever produced the views: GRP's
    mobility runs ({!Dgs_workload.Harness.run_mobility}) and the
    reclustering baselines E6 replays feed it the same way.

    An eviction is {e unjustified} when the evictor's previous view still
    passes {!Predicates.group_diameter_ok} in the current graph: the
    node's own ΠT held across the round, so nothing in the topology
    forced the eviction. *)

type t

type step = {
  breached : Dgs_core.Node_id.Set.t;
      (** nodes whose previous view fails {!Predicates.group_diameter_ok}
          in the current graph — the per-node ΠT of the round *)
  evicted : Dgs_core.Node_id.Set.t Dgs_core.Node_id.Map.t;
      (** every node that dropped members, with the members it dropped *)
}

type summary = {
  node_rounds : int;  (** nodes observed, summed over the rounds *)
  evictions : int;  (** view members dropped *)
  additions : int;  (** view members gained *)
  unjustified_evictions : int;
      (** members dropped by a node whose previous view kept diameter
          ≤ Dmax in the current graph *)
  lifetime : Dgs_util.Stats.summary;
      (** rounds a node's view stays the same, one sample per stretch
          between changes; the stretches still open count too *)
  stale_member_fraction : float;
      (** fraction of (node, other view member) pairs farther apart than
          Dmax in the round's graph *)
}

val create : dmax:int -> Configuration.t -> t
(** A ledger whose run starts at the given configuration.  The start is
    the previous configuration of the first round; it is not itself
    scored. *)

val observe : t -> Configuration.t -> step
(** Score one round: the configuration reached at its end, against the
    previous one.  The round's nodes are the configuration's. *)

val summary : t -> summary
(** The totals so far. *)
