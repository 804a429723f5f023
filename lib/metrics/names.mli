(** Canonical metric families registered by instrumented modules.

    Counters end in [_total], timers in [_ns]; [grp_view_size] is a
    histogram and [medium_loss_rate] a gauge.  Labelled series (e.g.
    [experiment_ns{id="e3"}]) use these as their family prefix — see
    {!Registry.labelled}.  The docs/OBSERVABILITY.md metric-names table is
    diffed against {!all} by the test suite. *)

val grp_compute_total : string
val grp_compute_cache_hit_total : string
val grp_compute_cache_miss_total : string
val grp_ant_merge_total : string
val grp_restrict_clear_total : string
val grp_compute_ns : string
val grp_fold_ns : string

(** The seven contiguous phases of a compute, summing to
    [grp_compute_ns]: inbox ingest, priority-table merge, admission
    (per-sender checks, cross check, evidence and conflicts), ant fold,
    too-far contest, quarantine/view/priority update, message build. *)

val grp_compute_ingest_ns : string
val grp_compute_priority_ns : string
val grp_compute_admission_ns : string
val grp_compute_fold_ns : string
val grp_compute_contest_ns : string
val grp_compute_update_ns : string
val grp_compute_message_ns : string
val grp_quarantine_enter_total : string
val grp_quarantine_admit_total : string
val grp_gate_conviction_total : string
val grp_gate_starvation_total : string
val grp_contest_win_total : string
val grp_contest_freeze_total : string
val grp_view_add_total : string
val grp_view_remove_total : string
val grp_view_size : string
val medium_broadcast_total : string
val medium_delivery_total : string
val medium_loss_total : string
val medium_drop_total : string
val medium_loss_rate : string
val medium_delivery_ns : string
val engine_schedule_total : string
val engine_fire_total : string
val oracle_poll_total : string
val oracle_poll_ns : string
val fuzz_run_total : string
val fuzz_failure_total : string
val fuzz_run_ns : string
val fuzz_coverage_new_total : string
val fuzz_rare_hit_total : string
val fuzz_coverage_rare_families : string
val fuzz_generator_weight : string
val experiment_ns : string
val experiment_tables_total : string

val all : string list
(** Every family above, in registration order. *)
