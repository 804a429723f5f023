(* Incremental oracle checking: agreement with the full Predicates recompute
   (the checker's own cross-check raises Mismatch on any divergence, so the
   tests below mostly have to *drive* it through churn), cache-effectiveness
   pins, and the structure-shared Snapshotter. *)

module Graph = Dgs_graph.Graph
module Gen = Dgs_graph.Gen
module Rounds = Dgs_sim.Rounds
module Cfg = Dgs_spec.Configuration
module P = Dgs_spec.Predicates
module Incremental = Dgs_spec.Incremental
module Harness = Dgs_workload.Harness
module Scenario = Dgs_check.Scenario
module Executor = Dgs_check.Executor
module Rng = Dgs_util.Rng
open Dgs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let dmax = 3
let config = Config.make ~dmax ()

(* Every poll in these tests runs with the cross-check forced on, so a
   single Incremental.check call that disagrees with the full checkers
   raises Mismatch and fails the test with the witness. *)
let checked_poll inc c = ignore (Incremental.check inc c)

(* --- randomized churn drives: topology and view changes per poll --- *)

let toggle_random_edge rng g =
  let nodes = Array.of_list (Graph.nodes g) in
  if Array.length nodes >= 2 then begin
    let u = nodes.(Rng.int rng (Array.length nodes)) in
    let v = nodes.(Rng.int rng (Array.length nodes)) in
    if u <> v then
      if Graph.mem_edge g u v then Graph.remove_edge g u v else Graph.add_edge g u v
  end

let churn_drive ~name g0 =
  let t = Rounds.create ~config (Graph.copy g0) in
  let rng = Rng.create 7 in
  let inc = Incremental.create ~cross_check_limit:max_int ~dmax () in
  let snap = Harness.Snapshotter.create () in
  for round = 1 to 60 do
    (* Perturb the topology every third round: sometimes via a fresh copy
       (the usual mobility shape), sometimes in place (the executor
       shape) — the checker must diff both correctly. *)
    if round mod 3 = 0 then begin
      let g =
        if round mod 6 = 0 then Rounds.graph t
        else Graph.copy (Rounds.graph t)
      in
      toggle_random_edge rng g;
      Rounds.set_graph t g
    end;
    ignore (Rounds.round ~jitter:0.2 ~rng t);
    checked_poll inc (Harness.Snapshotter.snapshot snap t (Rounds.graph t))
  done;
  check (name ^ ": polled") true ((Incremental.stats inc).Incremental.polls = 60)

let test_churn_ring () = ignore (churn_drive ~name:"ring" (Gen.ring 12))
let test_churn_grid () = ignore (churn_drive ~name:"grid" (Gen.grid 4 4))
let test_churn_cliquechain () =
  ignore (churn_drive ~name:"cliquechain" (Gen.group_chain ~groups:4 ~group_size:3))

(* Node departure and return: set_graph with a node missing, then back. *)
let test_node_churn () =
  let g0 = Gen.grid 3 3 in
  let t = Rounds.create ~config (Graph.copy g0) in
  let rng = Rng.create 11 in
  let inc = Incremental.create ~cross_check_limit:max_int ~dmax () in
  let snap = Harness.Snapshotter.create () in
  Rounds.run ~jitter:0.1 ~rng t 20;
  checked_poll inc (Harness.Snapshotter.snapshot snap t (Rounds.graph t));
  let without =
    let g = Graph.copy (Rounds.graph t) in
    Graph.remove_node g 4;
    g
  in
  Rounds.set_graph t without;
  ignore (Rounds.round ~jitter:0.1 ~rng t);
  checked_poll inc (Harness.Snapshotter.snapshot snap t without);
  Rounds.set_graph t (Graph.copy g0);
  ignore (Rounds.round ~jitter:0.1 ~rng t);
  checked_poll inc (Harness.Snapshotter.snapshot snap t (Rounds.graph t));
  check_int "three polls" 3 (Incremental.stats inc).Incremental.polls

(* --- regression-corpus replays, via the executor's observe hook --- *)

let regressions_dir = "regressions"

let test_corpus_agreement () =
  let files =
    Sys.readdir regressions_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  check "corpus present" true (files <> []);
  List.iter
    (fun f ->
      let sc =
        match Scenario.load (Filename.concat regressions_dir f) with
        | Some sc -> sc
        | None -> Alcotest.failf "%s: unreadable scenario" f
      in
      let inc =
        Incremental.create ~cross_check_limit:max_int ~dmax:sc.Scenario.dmax ()
      in
      let polls = ref 0 in
      let (_ : Dgs_check.Oracle.report) =
        Executor.run
          ~on_observe:(fun ~time:_ c ->
            incr polls;
            checked_poll inc c)
          sc
      in
      check (f ^ ": observed polls") true (!polls > 0))
    files

(* --- cache effectiveness: a quiescent network costs nothing to re-poll --- *)

let test_steady_state_is_cached () =
  let g = Gen.grid 4 4 in
  let t = Rounds.create ~config g in
  let rng = Rng.create 3 in
  ignore (Rounds.run_until_stable ~jitter:0.1 ~rng t);
  let inc = Incremental.create ~dmax () in
  let snap = Harness.Snapshotter.create () in
  checked_poll inc (Harness.Snapshotter.snapshot snap t g);
  let s1 = Incremental.stats inc in
  for _ = 1 to 5 do
    checked_poll inc (Harness.Snapshotter.snapshot snap t g)
  done;
  let s2 = Incremental.stats inc in
  check_int "no node re-dirtied" s1.Incremental.dirtied s2.Incremental.dirtied;
  check_int "no omega recomputed" s1.Incremental.omegas_computed s2.Incremental.omegas_computed;
  check_int "no diameter recomputed" s1.Incremental.diameters_computed
    s2.Incremental.diameters_computed;
  check_int "no pair recheck" s1.Incremental.pairs_checked s2.Incremental.pairs_checked;
  check_int "six polls" (s1.Incremental.polls + 5) s2.Incremental.polls

let test_mark_dirty_forces_recheck () =
  let g = Gen.grid 4 4 in
  let t = Rounds.create ~config g in
  let rng = Rng.create 3 in
  ignore (Rounds.run_until_stable ~jitter:0.1 ~rng t);
  let inc = Incremental.create ~dmax () in
  let snap = Harness.Snapshotter.create () in
  checked_poll inc (Harness.Snapshotter.snapshot snap t g);
  let s1 = Incremental.stats inc in
  Incremental.mark_dirty inc 0;
  checked_poll inc (Harness.Snapshotter.snapshot snap t g);
  let s2 = Incremental.stats inc in
  check "marked node rechecked" true
    (s2.Incremental.omegas_computed > s1.Incremental.omegas_computed);
  check_int "one more dirty" (s1.Incremental.dirtied + 1) s2.Incremental.dirtied

let test_mark_all_dirty_resets () =
  let g = Gen.ring 6 in
  let t = Rounds.create ~config g in
  let rng = Rng.create 5 in
  ignore (Rounds.run_until_stable ~jitter:0.1 ~rng t);
  let inc = Incremental.create ~dmax () in
  let snap = Harness.Snapshotter.create () in
  checked_poll inc (Harness.Snapshotter.snapshot snap t g);
  let s1 = Incremental.stats inc in
  Incremental.mark_all_dirty inc;
  checked_poll inc (Harness.Snapshotter.snapshot snap t g);
  let s2 = Incremental.stats inc in
  check "full recompute" true
    (s2.Incremental.omegas_computed >= s1.Incremental.omegas_computed + 6)

(* --- verdict plumbing --- *)

let test_legitimate_order () =
  (* Disagreeing views violate agreement; legitimate must surface the
     agreement witness first, exactly like Predicates.legitimate. *)
  let g = Gen.line 2 in
  let views =
    Node_id.Map.add 0
      (Node_id.Set.of_list [ 0; 1 ])
      (Node_id.Map.add 1 (Node_id.Set.singleton 1) Node_id.Map.empty)
  in
  let c = Cfg.make ~graph:g ~views in
  let inc = Incremental.create ~dmax () in
  let v = Incremental.check inc c in
  check "verdict equals full" true (Incremental.legitimate v = P.legitimate ~dmax c);
  check "agreement violation first" true
    (match Incremental.legitimate v with
    | Some { P.predicate = "agreement"; _ } -> true
    | _ -> false)

(* --- structure-shared snapshots --- *)

let test_snapshotter_equals_plain_snapshot () =
  let t = Rounds.create ~config (Gen.grid 3 3) in
  let rng = Rng.create 13 in
  let snap = Harness.Snapshotter.create () in
  for _ = 1 to 25 do
    ignore (Rounds.round ~jitter:0.2 ~rng t);
    let g = Rounds.graph t in
    let shared = Harness.Snapshotter.snapshot snap t g in
    let plain = Harness.snapshot t g in
    check "views equal" true
      (Node_id.Map.equal Node_id.Set.equal shared.Cfg.views plain.Cfg.views)
  done

let test_snapshotter_shares_structure () =
  let t = Rounds.create ~config (Gen.ring 8) in
  let rng = Rng.create 17 in
  ignore (Rounds.run_until_stable ~jitter:0.1 ~rng t);
  let g = Rounds.graph t in
  let snap = Harness.Snapshotter.create () in
  let c1 = Harness.Snapshotter.snapshot snap t g in
  let c2 = Harness.Snapshotter.snapshot snap t g in
  (* no view changed between the polls: the views map must be the very
     same object, not a copy *)
  check "physically shared" true (c1.Cfg.views == c2.Cfg.views)

let test_snapshotter_prunes_departed () =
  let g0 = Gen.ring 6 in
  let t = Rounds.create ~config (Graph.copy g0) in
  let rng = Rng.create 19 in
  Rounds.run ~jitter:0.1 ~rng t 5;
  let snap = Harness.Snapshotter.create () in
  ignore (Harness.Snapshotter.snapshot snap t (Rounds.graph t));
  let without =
    let g = Graph.copy (Rounds.graph t) in
    Graph.remove_node g 3;
    g
  in
  Rounds.set_graph t without;
  ignore (Rounds.round ~jitter:0.1 ~rng t);
  let c = Harness.Snapshotter.snapshot snap t without in
  check "departed node pruned" true (Node_id.Map.find_opt 3 c.Cfg.views = None);
  check_int "five entries" 5 (Node_id.Map.cardinal c.Cfg.views)

let suite =
  [
    ("churn agreement: ring", `Quick, test_churn_ring);
    ("churn agreement: grid", `Quick, test_churn_grid);
    ("churn agreement: clique chain", `Quick, test_churn_cliquechain);
    ("node departure and return", `Quick, test_node_churn);
    ("regression corpus: incremental = full at every poll", `Quick, test_corpus_agreement);
    ("steady state is fully cached", `Quick, test_steady_state_is_cached);
    ("mark_dirty forces recheck", `Quick, test_mark_dirty_forces_recheck);
    ("mark_all_dirty resets caches", `Quick, test_mark_all_dirty_resets);
    ("legitimate follows the full order", `Quick, test_legitimate_order);
    ("snapshotter = plain snapshot", `Quick, test_snapshotter_equals_plain_snapshot);
    ("snapshotter shares unchanged views", `Quick, test_snapshotter_shares_structure);
    ("snapshotter prunes departed nodes", `Quick, test_snapshotter_prunes_departed);
  ]
