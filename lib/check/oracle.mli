(** The fuzzer's judgment: which invariants to watch and what a run
    reported.

    Two kinds of checks run over an executed scenario:

    - {e Continuous} checks fire inside {!Dgs_sim.Net.on_step} after every
      compute: list well-formedness and (in calm windows, see below) view
      continuity.
    - {e Quiescent} checks fire once the network has stabilized with the
      channel made lossless: the paper's static predicates [ΠA] and [ΠS],
      plus the engine-event budget that catches timer leaks.

    Continuity ([ΠC]) is only a protocol guarantee while the topology
    predicate [ΠT] holds, so by default evictions only count as violations
    in a {e calm window}: the channel is currently lossless and
    uncorrupted, and enough time has passed since the last disruption
    (churn, loss episode, or a [ΠT]-breaking rewire) for the protocol to
    have restabilized.  [~strict_continuity:true] on {!Executor.run}
    disables the calm-window gating — useful to make any eviction a
    failure in targeted tests.

    The quiescence phase lasts at most 150 simulated seconds, polled once
    per [Tc].  A poll takes {!Dgs_sim.Net.state_signature}, one
    {!Dgs_core.Grp_node.state} snapshot per active node; the network is
    quiescent once consecutive snapshots are equal under
    {!Dgs_core.Grp_node.same_state} for {!Dgs_core.Grp_node.quiet_rounds}
    ([dmax + 5]) polls.  A run that exhausts the budget is scanned for a
    livelock: a period [p >= 2] at which the polled snapshots repeat over
    [max 2p (dmax + 5)] polls.

    Maximality ([ΠM]) is recorded in {!report.maximality_gap} and never
    fails a run: the implemented [compatibleList] admission test is
    deliberately more conservative than the paper's (see DESIGN.md
    Section 5 and experiment E3), so mergeable groups can legitimately
    persist on dense topologies. *)

type violation = { check : string; time : float; detail : string }

type report = {
  violations : violation list;  (** in order of detection *)
  stabilized : bool;  (** quiescence reached within the budget *)
  quiesce_time : float option;  (** simulation time of stabilization *)
  livelock_period : int option;
      (** when the run never stabilized: the shortest period [p >= 2] at
          which the final state snapshots provably repeat, if any — a
          periodic non-quiescent run is a livelock, not mere slowness *)
  maximality_gap : bool;
      (** mergeable groups remained at quiescence (informational only) *)
  groups : int;  (** distinct groups at the end of the run *)
  evictions : int;  (** view removals over the whole run *)
  computes : int;
  broadcasts : int;
  deliveries : int;
  drops : int;
  losses : int;
  engine_fires : int;  (** engine callbacks actually executed *)
  engine_fire_budget : int;  (** analytic upper bound for this schedule *)
}

val failed : report -> bool
(** [violations <> []]. *)

val report_to_json : report -> string
(** One-line JSON object covering every field of the report (violations
    included), with fixed key order and deterministic number formatting:
    two reports are equal iff their encodings are byte-equal.  The
    [--jobs N] determinism guarantee is stated — and tested — as byte
    equality of these strings against the sequential campaign. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
