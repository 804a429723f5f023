(* Canonical metric families.  Every name an instrumented module registers
   must come from this list (modulo a {label="..."} suffix) — the
   docs/OBSERVABILITY.md vocabulary test diffs the documented table against
   [all], so adding a metric here without documenting it fails runtest. *)

(* Grp_node.compute *)
let grp_compute_total = "grp_compute_total"
let grp_compute_cache_hit_total = "grp_compute_cache_hit_total"
let grp_compute_cache_miss_total = "grp_compute_cache_miss_total"
let grp_ant_merge_total = "grp_ant_merge_total"
let grp_restrict_clear_total = "grp_restrict_clear_total"
let grp_compute_ns = "grp_compute_ns"
let grp_fold_ns = "grp_fold_ns"
let grp_compute_ingest_ns = "grp_compute_ingest_ns"
let grp_compute_priority_ns = "grp_compute_priority_ns"
let grp_compute_admission_ns = "grp_compute_admission_ns"
let grp_compute_fold_ns = "grp_compute_fold_ns"
let grp_compute_contest_ns = "grp_compute_contest_ns"
let grp_compute_update_ns = "grp_compute_update_ns"
let grp_compute_message_ns = "grp_compute_message_ns"

(* Protocol events *)
let grp_quarantine_enter_total = "grp_quarantine_enter_total"
let grp_quarantine_admit_total = "grp_quarantine_admit_total"
let grp_gate_conviction_total = "grp_gate_conviction_total"
let grp_gate_starvation_total = "grp_gate_starvation_total"
let grp_contest_win_total = "grp_contest_win_total"
let grp_contest_freeze_total = "grp_contest_freeze_total"
let grp_view_add_total = "grp_view_add_total"
let grp_view_remove_total = "grp_view_remove_total"
let grp_view_size = "grp_view_size"

(* Broadcast channel (Net) *)
let medium_broadcast_total = "medium_broadcast_total"
let medium_delivery_total = "medium_delivery_total"
let medium_loss_total = "medium_loss_total"
let medium_drop_total = "medium_drop_total"
let medium_loss_rate = "medium_loss_rate"
let medium_delivery_ns = "medium_delivery_ns"

(* Engine *)
let engine_schedule_total = "engine_schedule_total"
let engine_fire_total = "engine_fire_total"

(* Checker *)
let oracle_poll_total = "oracle_poll_total"
let oracle_poll_ns = "oracle_poll_ns"
let fuzz_run_total = "fuzz_run_total"
let fuzz_failure_total = "fuzz_failure_total"
let fuzz_run_ns = "fuzz_run_ns"
let fuzz_coverage_new_total = "fuzz_coverage_new_total"
let fuzz_rare_hit_total = "fuzz_rare_hit_total"
let fuzz_coverage_rare_families = "fuzz_coverage_rare_families"
let fuzz_generator_weight = "fuzz_generator_weight"

(* CLI-level experiment metrics (labelled with {id="e1"} etc.) *)
let experiment_ns = "experiment_ns"
let experiment_tables_total = "experiment_tables_total"

let all =
  [
    grp_compute_total;
    grp_compute_cache_hit_total;
    grp_compute_cache_miss_total;
    grp_ant_merge_total;
    grp_restrict_clear_total;
    grp_compute_ns;
    grp_fold_ns;
    grp_compute_ingest_ns;
    grp_compute_priority_ns;
    grp_compute_admission_ns;
    grp_compute_fold_ns;
    grp_compute_contest_ns;
    grp_compute_update_ns;
    grp_compute_message_ns;
    grp_quarantine_enter_total;
    grp_quarantine_admit_total;
    grp_gate_conviction_total;
    grp_gate_starvation_total;
    grp_contest_win_total;
    grp_contest_freeze_total;
    grp_view_add_total;
    grp_view_remove_total;
    grp_view_size;
    medium_broadcast_total;
    medium_delivery_total;
    medium_loss_total;
    medium_drop_total;
    medium_loss_rate;
    medium_delivery_ns;
    engine_schedule_total;
    engine_fire_total;
    oracle_poll_total;
    oracle_poll_ns;
    fuzz_run_total;
    fuzz_failure_total;
    fuzz_run_ns;
    fuzz_coverage_new_total;
    fuzz_rare_hit_total;
    fuzz_coverage_rare_families;
    fuzz_generator_weight;
    experiment_ns;
    experiment_tables_total;
  ]
