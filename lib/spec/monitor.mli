(** Convergence monitor for the CLI's traced runs: the sustained-from time
    of each static predicate over a stream of configuration snapshots,
    and a per-node tally of the [View_changed] event stream.

    Transitions ([ΠT] and [ΠC]) are judged elsewhere, where their excuse
    can be attributed per pair: {!Dgs_workload.Harness.run_mobility} for
    the mobility experiments, and the calm windows of the fuzzer's
    {!Dgs_check.Executor}. *)

type t

type timeline = {
  time_to_agreement : float option;
      (** time of the first observation from which ΠA held in every later
          observation; [None] if it is violated at the end *)
  time_to_safety : float option;
  time_to_maximality : float option;
  time_to_legitimate : float option;
      (** all three predicates together — the configuration is legitimate *)
}

val create : dmax:int -> t
(** A monitor checking against the given diameter bound. *)

val observe_at : t -> time:float -> Configuration.t -> unit
(** Record a configuration observed at an explicit time (simulation
    seconds under {!Dgs_sim.Net}, round number under
    {!Dgs_sim.Rounds}) — the times the {!timeline} reports. *)

val timeline : t -> timeline
(** The convergence timeline: when each predicate started to hold for
    good.  Sustained-from times, not first-held times — a predicate that
    breaks and recovers restarts its clock. *)

val pp_timeline : Format.formatter -> timeline -> unit
(** Render a {!timeline} for humans. *)

type view_tally
(** Per-node count, last change time and final view of every
    [View_changed] seen so far.  Its size is the node count, however long
    the run. *)

val view_tally : unit -> view_tally
(** An empty tally. *)

val view_tally_sink : view_tally -> Dgs_trace.Trace.t
(** A trace sink that folds every [View_changed] it receives into the
    tally, stamped with the sink's time, and ignores all other events. *)

val view_stabilization :
  view_tally -> (Dgs_core.Node_id.t * float * int list * int) list
(** [(node, last_change_time, final_view, changes)] for every node that
    emitted at least one [View_changed], sorted by node.  On a converged
    run each node's [final_view] equals its stable view and
    [last_change_time] is when it got there — the per-node convergence
    timeline. *)
