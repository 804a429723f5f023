(* Integration tests of the best-effort requirement (paper Section 5.2):
   ΠT ⇒ ΠC under mobility, plus the properties the quarantine buys. *)

module Mobility = Dgs_mobility.Mobility
module Harness = Dgs_workload.Harness
module Membership = Dgs_spec.Membership
module Configuration = Dgs_spec.Configuration
module Trace = Dgs_trace.Trace
module E6 = Dgs_workload.E6_baselines
open Dgs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let waypoint speed =
  Mobility.Waypoint
    {
      xmax = 8.0;
      ymax = 8.0;
      vmin = (speed /. 2.0) +. 1e-9;
      vmax = (speed *. 1.5) +. 2e-9;
      pause = 2.0;
    }

let highway speed =
  Mobility.Highway
    {
      lanes = 3;
      lane_gap = 0.3;
      length = 25.0;
      vmin = speed /. 2.0;
      vmax = (speed *. 1.5) +. 1e-9;
      bidirectional = true;
    }

let run ?(config = Config.make ~dmax:3 ()) ?(n = 20) ?(rounds = 150) ?warmup ~seed spec =
  Harness.run_mobility ?warmup ~config ~seed ~spec ~n ~rounds ()

let test_static_no_evictions () =
  (* Zero mobility, measured after full convergence: ΠT always holds and
     nothing may ever be evicted.  (A long warmup is needed because views
     can legitimately span up to 2*Dmax before agreement, which the
     conservative ΠT classifier flags.) *)
  let r = run ~warmup:250 ~seed:1 (waypoint 0.0) in
  check_int "all steps \xCE\xA0T-ok" r.Harness.steps r.Harness.pt_preserving;
  check_int "no evictions at all" 0 r.Harness.churn.Membership.evictions

let test_theorem_waypoint () =
  (* Waypoint mobility in a box creates conflict hotspots where several
     groups renegotiate at once; concurrent-merge races (which the paper's
     proofs do not cover — DESIGN.md Section 5) can produce isolated
     theorem-accounting residuals, measured at ~1 per 3000 node-rounds.
     The bound here is deliberately tight; highway and static runs are
     exactly zero. *)
  List.iter
    (fun (seed, speed) ->
      let r = run ~seed (waypoint speed) in
      (* Allowance: up to 5% of all evictions (and never more than a
         handful) — the measured residual of concurrent-merge races. *)
      let allowance = max 2 (r.Harness.churn.Membership.evictions / 20) in
      ignore speed;
      check
        (Printf.sprintf "evictions under \xCE\xA0T bounded (waypoint v=%.2f seed=%d)"
           speed seed)
        true
        (r.Harness.evictions_under_pt <= allowance))
    [ (2, 0.03); (3, 0.05); (4, 0.08) ]

let test_theorem_highway () =
  List.iter
    (fun (seed, speed) ->
      let r = run ~seed (highway speed) in
      check_int
        (Printf.sprintf "no eviction under \xCE\xA0T (highway v=%.2f seed=%d)" speed seed)
        0 r.Harness.evictions_under_pt)
    [ (5, 0.03); (6, 0.06) ]

let test_breaches_do_evict () =
  (* At a high speed the topology breaks groups and evictions must happen
     (the service is best-effort, not magic). *)
  let r = run ~seed:7 (waypoint 0.15) in
  check "\xCE\xA0T gets broken" true (r.Harness.pt_violating > 0);
  check "evictions happen on breaches" true (r.Harness.churn.Membership.evictions > 0)

let test_mobility_runs_form_groups () =
  let r = run ~seed:8 (highway 0.03) in
  check "groups exist" true (r.Harness.mean_group_size > 1.1)

let test_quarantine_ablation_hurts () =
  (* Without the quarantine, members are admitted before conflicts are
     settled; under mobility this produces far more unjustified
     evictions.  The admission gate's continuous re-validation partially
     subsumes this protection (and its conflict tracking keys off
     quarantine state), so both arms hold the gate off to measure the
     quarantine's contribution in isolation. *)
  let with_q =
    run ~seed:9
      ~config:(Config.make ~admission_gate_enabled:false ~dmax:3 ())
      (waypoint 0.05)
  in
  let without_q =
    run ~seed:9
      ~config:
        (Config.make ~admission_gate_enabled:false ~quarantine_enabled:false ~dmax:3 ())
      (waypoint 0.05)
  in
  check "quarantine reduces unjustified evictions" true
    (with_q.Harness.churn.Membership.unjustified_evictions
    < without_q.Harness.churn.Membership.unjustified_evictions)

let test_harness_accounting () =
  let r = run ~seed:10 ~rounds:60 (waypoint 0.05) in
  check_int "steps recorded" 60 r.Harness.steps;
  check_int "transition classes partition the steps" 60
    (r.Harness.pt_preserving + r.Harness.pt_violating);
  check "lifetimes measured" true
    (r.Harness.churn.Membership.lifetime.Dgs_util.Stats.count > 0)

(* GRP's own per-round views, read back from the run's trace and laid
   over the topology trace E6 replays the baselines on, go through E6's
   replay path into the ledger: the result must be exactly what
   [run_mobility] reported, so GRP and the baselines are scored by one
   definition. *)
let test_replay_matches_run_mobility () =
  let config = Config.make ~dmax:3 () and seed = 13 and n = 15 in
  let warmup = 30 and rounds = 60 and spec = waypoint 0.08 in
  let changed = Hashtbl.create 256 in
  let trace =
    Trace.make (fun ~time -> function
      | Trace.View_changed { node; view; _ } ->
          Hashtbl.add changed (int_of_float time) (node, Node_id.set_of_list view)
      | _ -> ())
  in
  let r = Harness.run_mobility ~warmup ~trace ~config ~seed ~spec ~n ~rounds () in
  let views = ref Node_id.Map.empty in
  let replay_round k =
    List.iter (fun (v, view) -> views := Node_id.Map.add v view !views)
      (Hashtbl.find_all changed k)
  in
  for k = 1 to warmup do replay_round k done;
  let configs =
    List.mapi
      (fun k graph ->
        if k > 0 then replay_round (warmup + k);
        Configuration.make ~graph ~views:!views)
      (Harness.graph_snapshots ~seed ~spec ~n ~every:1 ~rounds)
  in
  let m = E6.replay ~dmax:3 ~start:(List.hd configs) (List.tl configs) in
  let c = r.Harness.churn in
  check "GRP evicted, some of it unjustified" true
    (c.Membership.evictions > 0 && c.Membership.unjustified_evictions > 0);
  check_int "evictions" c.Membership.evictions m.Membership.evictions;
  check_int "unjustified" c.Membership.unjustified_evictions
    m.Membership.unjustified_evictions;
  check_int "node rounds" c.Membership.node_rounds m.Membership.node_rounds;
  check "lifetime summary" true (c.Membership.lifetime = m.Membership.lifetime);
  Alcotest.(check (float 0.0)) "stale fraction" c.Membership.stale_member_fraction
    m.Membership.stale_member_fraction

let test_graph_snapshots_deterministic () =
  let s1 = Harness.graph_snapshots ~seed:11 ~spec:(waypoint 0.05) ~n:10 ~every:5 ~rounds:20 in
  let s2 = Harness.graph_snapshots ~seed:11 ~spec:(waypoint 0.05) ~n:10 ~every:5 ~rounds:20 in
  check_int "snapshot count" 5 (List.length s1);
  check "same seed, same trace" true
    (List.for_all2 Dgs_graph.Graph.equal s1 s2)

let test_rgg_helper () =
  let g = Harness.rgg ~seed:12 ~n:25 () in
  check_int "node count" 25 (Dgs_graph.Graph.node_count g);
  check "connected" true (Dgs_graph.Paths.is_connected g)

let suite =
  [
    ("static: no evictions ever", `Quick, test_static_no_evictions);
    ("theorem \xCE\xA0T⇒\xCE\xA0C on waypoint", `Slow, test_theorem_waypoint);
    ("theorem \xCE\xA0T⇒\xCE\xA0C on highway", `Slow, test_theorem_highway);
    ("breaches do evict", `Quick, test_breaches_do_evict);
    ("groups form under mobility", `Quick, test_mobility_runs_form_groups);
    ("quarantine ablation hurts", `Slow, test_quarantine_ablation_hurts);
    ("harness accounting", `Quick, test_harness_accounting);
    ("E6 replay of GRP's views = run_mobility", `Quick, test_replay_matches_run_mobility);
    ("graph snapshots deterministic", `Quick, test_graph_snapshots_deterministic);
    ("rgg helper", `Quick, test_rgg_helper);
  ]
