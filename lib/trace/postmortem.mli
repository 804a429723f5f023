(** Post-mortem analysis of a recorded trace ([grp_sim report]).

    Ingests the [(time, event)] list of a {!Trace.Jsonl} trace (or a
    {!Trace.Ring} dump) and derives the convergence story of the run
    without re-running the simulation: a bucketed convergence timeline,
    the per-node view-stabilization table, the eviction chains (read off
    the {!Causal} lineage DAG), and
    group-size / group-lifetime distributions — the quantities Lauzier et
    al. report for live group detection, produced here from any replayed
    regression script.

    Times are whatever clock the producing driver stamped: simulation
    seconds under {!Dgs_sim.Net}, round numbers under {!Dgs_sim.Rounds}
    and {!Dgs_sim.Sharded}. *)

(** {2 Per-node view stabilization}

    One fold of the [View_changed] stream, run over a recorded trace by
    {!analyze} and live, teed beside the trace file, by [grp_sim converge]
    and [grp_sim mobility]. *)

type view_tally
(** Per-node count, last change time and final view of every
    [View_changed] seen so far.  Its size is the node count, however long
    the run. *)

val view_tally : unit -> view_tally
(** An empty tally. *)

val view_tally_sink : view_tally -> Trace.t
(** A trace sink that folds every [View_changed] it receives into the
    tally, stamped with the sink's time, and ignores all other events. *)

val view_stabilization : view_tally -> (int * float * int list * int) list
(** [(node, last_change_time, final_view, changes)] for every node that
    emitted at least one [View_changed], sorted by node.  On a converged
    run each node's [final_view] equals its stable view and
    [last_change_time] is when it got there — the per-node convergence
    timeline. *)

(** {2 Trace analysis} *)

type t
(** An analyzed trace. *)

val analyze : (float * Trace.event) list -> t
(** Events in emission order (as {!Trace.Jsonl.load} returns them). *)

val event_count : t -> int
val nodes : t -> int list
(** Every node attributed at least one event, sorted. *)

val convergence_timeline : ?buckets:int -> t -> Dgs_metrics.Table.t
(** Table "convergence timeline": the trace span cut into [buckets]
    (default 20) equal time buckets; per bucket the view changes, the
    distinct nodes that changed, merge attempts/accepts, deliveries, and
    the number of nodes already stable (no view change after the bucket's
    end). *)

val stabilization : t -> Dgs_metrics.Table.t
(** Table "view stabilization": per node, the number of view changes, the
    time of the last one, and the final view.  Nodes that emitted events
    but never a [View_changed] show zero changes and an unknown view. *)

val eviction_chains : t -> Dgs_metrics.Table.t
(** Table "eviction chains": one row per [View_changed] with a non-empty
    [removed], in {!Causal} id order, with the members evicted, the view
    left, the eviction's proximate cause ({!Causal.proximate}, ["-"] for
    a root) and the hop count and root of its {!Causal.chain} — the
    chain [grp_sim explain --eviction] prints.  Cost is linear in the
    DAG's edges after {!Causal.build}. *)

val group_sizes : t -> Dgs_metrics.Histogram.t
(** Distribution of final group sizes: the size of each {e distinct} final
    view (one count per group, not per member). *)

val group_lifetimes : t -> Dgs_metrics.Histogram.t
(** Distribution of view lifetimes: for every node, the spans between
    consecutive view changes plus the final stretch to the end of the
    trace. *)

val render : t -> string
(** All sections — timeline and stabilization tables, eviction chains,
    and both distributions — as one report. *)

val csv_exports : t -> (string * string) list
(** [(basename, csv content)] pairs for [--csv]: the three tables plus
    both distributions. *)

val render_snapshots : Dgs_metrics.Registry.snapshot list -> string
(** Table "metrics snapshot" for each snapshot (a metrics JSONL may hold
    interval snapshots or per-scenario lines), rendered in order: one row
    per counter, gauge, timer (count / total / max / mean ns) and
    histogram family, titled with the host header (cores, jobs). *)
