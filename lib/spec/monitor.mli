(** Convergence monitor for the CLI's traced runs: the sustained-from time
    of each static predicate over a stream of configuration snapshots.
    The per-node tally of the [View_changed] stream is
    {!Dgs_trace.Postmortem.view_tally}.

    Transitions ([ΠT] and [ΠC]) are judged elsewhere, where their excuse
    can be attributed per pair: {!Membership} and
    {!Dgs_workload.Harness.run_mobility} for the mobility experiments, and
    the calm windows of the fuzzer's {!Dgs_check.Executor}. *)

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
