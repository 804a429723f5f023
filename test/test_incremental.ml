(* Incremental oracle checking: agreement with the full Predicates recompute
   (the checker's own cross-check raises Mismatch on any divergence, so the
   tests below mostly have to *drive* it through churn), the diff's
   shortcut on quiescent polls, and the structure-shared Snapshotter. *)

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

(* --- the diff: a quiescent network costs no full pass to re-poll --- *)

let settled_grid () =
  let g = Gen.grid 4 4 in
  let t = Rounds.create ~config g in
  let rng = Rng.create 3 in
  ignore (Rounds.run_until_stable ~jitter:0.1 ~rng t);
  let snap = Harness.Snapshotter.create () in
  fun () -> Harness.Snapshotter.snapshot snap t g

let test_steady_state_skips_full_pass () =
  let poll = settled_grid () in
  let inc = Incremental.create ~dmax () in
  let first = Incremental.check inc (poll ()) in
  let s1 = Incremental.stats inc in
  check_int "first poll dirties every node" 16 s1.Incremental.dirtied;
  check_int "first poll runs a full pass" 1 s1.Incremental.full_passes;
  for _ = 1 to 5 do
    check "previous verdicts returned" true (Incremental.check inc (poll ()) == first)
  done;
  let s2 = Incremental.stats inc in
  check_int "no node re-dirtied" s1.Incremental.dirtied s2.Incremental.dirtied;
  check_int "no full pass" s1.Incremental.full_passes s2.Incremental.full_passes;
  check_int "no cross-check" s1.Incremental.cross_checks s2.Incremental.cross_checks;
  check_int "six polls" (s1.Incremental.polls + 5) s2.Incremental.polls

let test_mark_dirty_forces_recheck () =
  let poll = settled_grid () in
  let inc = Incremental.create ~dmax () in
  checked_poll inc (poll ());
  let s1 = Incremental.stats inc in
  Incremental.mark_dirty inc 0;
  checked_poll inc (poll ());
  let s2 = Incremental.stats inc in
  check_int "marked node forces a full pass" (s1.Incremental.full_passes + 1)
    s2.Incremental.full_passes;
  check_int "and is cross-checked" (s1.Incremental.cross_checks + 1)
    s2.Incremental.cross_checks;
  check_int "one more dirty" (s1.Incremental.dirtied + 1) s2.Incremental.dirtied;
  checked_poll inc (poll ());
  check_int "the mark is spent" s2.Incremental.full_passes
    (Incremental.stats inc).Incremental.full_passes

(* --- past the default cross-check limit: a churning 300-vehicle highway --- *)

(* The default limit (64 nodes) never cross-checks a mobility run, where
   nearly every node is dirty at every poll; force it on a sharded
   highway, polled every 5 rounds as Vanet.run does. *)
let test_highway_equals_full () =
  let n = 300 and range = 2.0 and jitter = 0.1 in
  let module Vanet = Dgs_workload.Vanet in
  let module Mobility = Dgs_mobility.Mobility in
  let module Sharded = Dgs_sim.Sharded in
  let mob =
    Mobility.create (Rng.create 1) ~n (Vanet.spec_of Vanet.Highway ~n ~range ~speed:0.15)
  in
  let s = Sharded.create ~config ~shards:2 ~seed:1 (Mobility.graph mob ~range) in
  let inc = Incremental.create ~cross_check_limit:max_int ~dmax () in
  let snap = Harness.Snapshotter.create () in
  for round = 1 to 40 do
    Mobility.step mob ~dt:1.0;
    let g = Mobility.graph mob ~range in
    Sharded.set_graph s g;
    ignore (Sharded.round ~jitter s);
    if round mod 5 = 0 then
      checked_poll inc
        (Harness.Snapshotter.snapshot_views snap ~ids:(Sharded.node_ids s)
           ~view:(fun v -> Grp_node.view (Sharded.node s v))
           g)
  done;
  let st = Incremental.stats inc in
  check_int "eight polls" 8 st.Incremental.polls;
  check_int "every poll a cross-checked full pass" 8 st.Incremental.cross_checks;
  check "nearly every node dirty" true (st.Incremental.dirtied >= 8 * n * 9 / 10)

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
    ("steady state skips the full pass", `Quick, test_steady_state_skips_full_pass);
    ("mark_dirty forces recheck", `Quick, test_mark_dirty_forces_recheck);
    ("300-vehicle highway: incremental = full at every poll", `Quick,
      test_highway_equals_full);
    ("legitimate follows the full order", `Quick, test_legitimate_order);
    ("snapshotter = plain snapshot", `Quick, test_snapshotter_equals_plain_snapshot);
    ("snapshotter shares unchanged views", `Quick, test_snapshotter_shares_structure);
    ("snapshotter prunes departed nodes", `Quick, test_snapshotter_prunes_departed);
  ]
