(** Fuzzing campaigns: generate, execute, judge, shrink, summarize.

    [campaign ~seed ~runs ~max_actions ()] derives [runs] scenarios from
    the single master seed, executes each under the oracle, and minimizes
    every failure with {!Shrink} (the shrinking predicate demands a
    violation of the {e same} check as the original failure).  The whole
    campaign is a pure function of its arguments, so a failing seed
    reported by CI reproduces exactly on any machine.

    With [jobs > 1] the runs execute on a {!Dgs_parallel.Pool} of that
    many domains.  Each run is a self-contained task (own scenario, own
    network, own trace sinks) whose randomness is derived order-
    independently with {!Dgs_util.Rng.split_at}, and results are
    aggregated in run order after the pool joins — so the summary, every
    per-run report, and the exit status are byte-identical to a [jobs = 1]
    campaign (which in turn reproduces the historical sequential loop). *)

type failure = {
  run : int;  (** index of the failing run within the campaign *)
  scenario : Scenario.t;  (** as generated *)
  shrunk : Scenario.t;  (** minimized, fails the same check *)
  first_violation : Oracle.violation;  (** of the original run *)
  report : Oracle.report;  (** of the original run *)
}

type summary = {
  master_seed : int;
  runs : int;
  max_actions : int;
  failures : failure list;  (** in run order *)
  stabilized_runs : int;
  total_evictions : int;
  maximality_gaps : int;  (** informational (see {!Oracle}) *)
  run_snapshots : Dgs_metrics.Registry.snapshot list;
      (** one metrics snapshot per run, in run order — each a pure
          function of the scenario, so the list is identical for every
          [jobs]; empty unless [~metrics:true] *)
  metrics : Dgs_metrics.Registry.snapshot option;
      (** whole-campaign merge: every run snapshot plus the per-domain
          campaign-runner registries ([fuzz_run_total] /
          [fuzz_failure_total] / [fuzz_run_ns]) plus, for guided
          campaigns, the campaign-level coverage families
          ([fuzz_coverage_*], [fuzz_rare_hit_total],
          [fuzz_generator_weight{family=...}]); counter sections are
          byte-identical across [jobs] values
          ({!Dgs_metrics.Registry.counters_to_json}), timer values are
          wall clock.  [None] unless [~metrics:true] *)
  coverage : Coverage.report option;
      (** the guided campaign's coverage report; [None] unless
          [~coverage:true] *)
}

val campaign :
  ?strict_continuity:bool ->
  ?jobs:int ->
  ?metrics:bool ->
  ?coverage:bool ->
  ?evolve:bool ->
  seed:int ->
  runs:int ->
  max_actions:int ->
  ?on_run:(int -> Scenario.t -> Oracle.report -> unit) ->
  unit ->
  summary
(** [on_run] observes every executed scenario (progress reporting); it is
    always invoked in run order from the calling domain, after the runs
    themselves completed when [jobs > 1].  [jobs] defaults to [1].
    [metrics] (default [false]) meters every run into its own registry
    (see {!summary.run_snapshots}) and the campaign runner into
    per-domain registries via {!Dgs_parallel.Pool.map_ctx}; shrink
    replays of failures are never metered.

    [coverage] (default [false]) switches generation to
    {!Scenario.generate_weighted} driven by a {!Coverage} evolver:
    scenarios are generated in the caller in batches with the weights
    current at each batch start, the batch executes on the pool, and the
    batch's signatures are folded into the evolver at the barrier, in run
    order.  The signature stream is therefore a pure function of the
    seed, and a guided campaign is byte-identical for every [jobs]
    value.  Guided campaigns use a different scenario stream than
    unguided ones (weighted generation draws differently), so a seed's
    failures are comparable only within the same mode.

    [evolve] (default [true], only meaningful with [~coverage:true]):
    [~evolve:false] keeps the weights uniform for the whole campaign
    while still collecting the coverage report — the baseline leg of the
    guided vs. uniform comparison (E13); since generation uses the same
    weighted sampler in both modes, the two legs differ exactly in the
    weight evolution. *)

val replay :
  ?strict_continuity:bool ->
  ?trace:Dgs_trace.Trace.t ->
  ?metrics:Dgs_metrics.Registry.t ->
  Scenario.t ->
  Oracle.report
(** Execute one scenario (a loaded repro) under the oracle.  [trace] and
    [metrics] record the replay for [grp_sim report]. *)

val save_repro : dir:string -> failure -> string
(** Write the shrunk scenario of a failure as
    [dir/repro-run<N>-<check>.json]; returns the path.  The file replays
    with [grp_sim fuzz --replay]. *)

val pp_summary : Format.formatter -> summary -> unit
(** Human summary; prints each failure's shrunk script as JSON so it can
    be copied into a repro file. *)
