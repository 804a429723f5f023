module Table = Dgs_metrics.Table
module Gen = Dgs_graph.Gen
module Rounds = Dgs_sim.Rounds
module Mobility = Dgs_mobility.Mobility
module Stats = Dgs_util.Stats
module Rng = Dgs_util.Rng
module Pool = Dgs_parallel.Pool
open Dgs_core

let variants =
  [
    ("full", fun dmax -> Config.make ~dmax ());
    ("no-quarantine", fun dmax -> Config.make ~quarantine_enabled:false ~dmax ());
    ("no-shortcut", fun dmax -> Config.make ~compat_shortcut_enabled:false ~dmax ());
    ( "no-joint-admission",
      fun dmax -> Config.make ~joint_admission_enabled:false ~dmax () );
    ( "lowest-id priority",
      fun dmax -> Config.make ~priority_mode:Config.Lowest_id ~dmax () );
    ( "no-admission-gate",
      fun dmax -> Config.make ~admission_gate_enabled:false ~dmax () );
    ( "no-contest-cooldown",
      fun dmax -> Config.make ~contest_cooldown_enabled:false ~dmax () );
  ]

(* grid4x4 under a perfectly synchronous (jitter-free) schedule is the
   bridge-race topology that joint admission resolves; without it the race
   livelocks (DESIGN.md Section 5, item 8). *)
let lockstep_grid config =
  let t = Rounds.create ~config (Gen.grid 4 4) in
  Rounds.run_until_stable ~max_rounds:1500 t <> None

let run ?(quick = false) ?(jobs = 1) () =
  let reps = if quick then 2 else 4 in
  let dmax = 3 in
  let table =
    Table.create ~title:"E8: mechanism ablations"
      ~columns:
        [
          "variant";
          "rgg converged";
          "rounds (mean)";
          "lockstep grid4x4";
          "evict under \xCE\xA0T";
          "unjustified evictions";
        ]
  in
  List.iter
    (fun (name, make) ->
      let config = make dmax in
      let rgg_runs =
        Pool.map ~jobs reps (fun r ->
            let g = Harness.rgg ~seed:(1300 + r) ~n:(if quick then 15 else 30) () in
            Harness.converge ~max_rounds:2000 ~config ~seed:(1400 + r) g)
      in
      let rgg_rounds =
        List.filter_map (fun c -> Option.map float_of_int c.Harness.rounds) rgg_runs
      in
      let grid_ok = lockstep_grid config in
      let mob =
        Harness.run_mobility ~warmup:120 ~config ~seed:1600
          ~spec:
            (Mobility.Waypoint
               { xmax = 10.0; ymax = 10.0; vmin = 0.01; vmax = 0.05; pause = 4.0 })
          ~n:(if quick then 15 else 30)
          ~rounds:(if quick then 60 else 250)
          ()
      in
      Table.add_row table
        [
          name;
          Printf.sprintf "%d/%d" (List.length rgg_rounds) reps;
          Table.cell_float ~decimals:1 (Stats.mean rgg_rounds);
          (if grid_ok then "converges" else "LIVELOCK");
          Table.cell_int mob.Harness.evictions_under_pt;
          Table.cell_int mob.Harness.churn.Dgs_spec.Membership.unjustified_evictions;
        ])
    variants;
  [ table ]
