(** E9 — Scalability (extension beyond the paper's scope).

    Convergence cost as the network grows: rounds to quiescence, directed
    messages, groups and verdicts (wall-clock per round is perfbench's
    [converge] workload, measured with repeats).  GRP
    is fully local (per-compute work is bounded by the Dmax-neighborhood),
    so rounds should grow slowly with n while messages grow linearly. *)

val run : ?quick:bool -> ?jobs:int -> unit -> Dgs_metrics.Table.t list
