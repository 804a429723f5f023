(** Scenario replay with continuous invariant checking.

    [run] builds a fresh {!Dgs_sim.Net} from the scenario (everything
    seeded from [scenario.seed], so two runs of the same scenario are
    bit-identical), applies the action schedule, then grants the network a
    quiescence phase with the channel made lossless and judges the final
    configuration.  See {!Oracle} for what is checked when.

    The engine-event budget: every node's timers fire at most
    [duration * (1/tau_c + 1/tau_s) + 4] events per activation episode
    (initial phase and one stale post-retirement fire per timer), and the
    only other engine events are message deliveries and drops.  An engine
    that executes more callbacks than that is leaking timers — this is the
    oracle that catches the historical bug where deactivated nodes kept
    rescheduling forever. *)

val tau_c : float
(** Compute period of every fuzzed run: {!Dgs_sim.Net.tau_c}. *)

val run :
  ?strict_continuity:bool ->
  ?protocol:(Dgs_core.Config.t -> Dgs_core.Config.t) ->
  ?trace:Dgs_trace.Trace.t ->
  ?metrics:Dgs_metrics.Registry.t ->
  ?on_observe:(time:float -> Dgs_spec.Configuration.t -> unit) ->
  Scenario.t ->
  Oracle.report
(** [strict_continuity] (default [false]) makes every eviction a
    continuity violation, calm window or not (see {!Oracle}).

    [protocol] post-processes the protocol configuration built from the
    scenario (default: identity).  Used by ablation tests to replay a
    pinned scenario with a protocol mechanism switched off — e.g. proving
    that a regression script livelocks again without the contest
    cooldown.  It must not change [dmax], which the scenario owns.

    [trace] (default {!Dgs_trace.Trace.null}) receives the full event
    stream of the replay — channel and protocol events, stamped with
    simulation time — which is what [grp_sim report] post-mortems.

    [on_observe] is invoked at every quiescence-phase poll with the
    simulation time and the same active-induced configuration the final
    judgement evaluates — the hook the incremental-vs-full oracle agreement
    tests use to compare checkers over regression-corpus replays.  The
    configuration's graph is freshly allocated per poll, so observers may
    retain or diff configurations across polls.

    [metrics] (default {!Dgs_metrics.Registry.null}) is threaded to the
    network runtime, its engine and every node, and additionally receives
    [oracle_poll_total] / [oracle_poll_ns] around each quiescence-phase
    poll of {!Dgs_sim.Net.state_signature}.  All counters it accumulates
    are pure functions of the scenario (the simulation is deterministic
    per seed); only the [_ns] timer values are wall clock. *)
