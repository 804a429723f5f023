(* The paper's propositions (Section 5) as executable checks.

   Each test drives the protocol into the proposition's setting and
   asserts the claimed suffix property.  Where a proposition is about "any
   execution", the tests quantify over seeds and topologies; where our
   implementation deviates from the paper's letter, the deviation is
   noted (DESIGN.md Section 5) and the test pins the implemented
   behavior. *)

module Gen = Dgs_graph.Gen
module Graph = Dgs_graph.Graph
module Paths = Dgs_graph.Paths
module Rounds = Dgs_sim.Rounds
module Cfg = Dgs_spec.Configuration
module P = Dgs_spec.Predicates
module Rng = Dgs_util.Rng
open Dgs_core

let check = Alcotest.(check bool)

let snapshot t g =
  Cfg.make ~graph:g
    ~views:
      (List.fold_left
         (fun acc v -> Node_id.Map.add v (Grp_node.view (Rounds.node t v)) acc)
         Node_id.Map.empty (Rounds.node_ids t))

let settle t rng = ignore (Rounds.run_until_stable ~jitter:0.1 ~rng ~max_rounds:4000 t)

(* Proposition 1 (Dmax): every execution reaches a suffix where every list
   has at most Dmax+1 levels — in fact the bound holds after every
   compute, from any corrupted start. *)
let prop_1_dmax () =
  let dmax = 2 in
  let g = Gen.grid 3 3 in
  let t = Rounds.create ~config:(Config.make ~dmax ()) g in
  (* Corrupt every node with an oversized list. *)
  List.iter
    (fun v ->
      Grp_node.corrupt_list (Rounds.node t v)
        (Antlist.of_levels
           (List.init 6 (fun i -> [ ((v + (i * 9)) mod 60, Mark.Clear) ]))))
    (Rounds.node_ids t);
  (* "after every node has computed its list": run without jitter so each
     round recomputes everybody, and the bound must hold from round one. *)
  for _ = 1 to 30 do
    ignore (Rounds.round t);
    List.iter
      (fun v ->
        check "list bounded by Dmax+1" true
          (Antlist.size (Grp_node.antlist (Rounds.node t v)) <= dmax + 1))
      (Rounds.node_ids t)
  done

(* Proposition 2 (Exist): non-existing node labels eventually vanish from
   every list, forever. *)
let prop_2_exist () =
  let dmax = 3 in
  let g = Gen.ring 8 in
  let t = Rounds.create ~config:(Config.make ~dmax ()) g in
  let rng = Rng.create 2 in
  settle t rng;
  (* Inject ghosts 100+v into every list and view. *)
  List.iter
    (fun v ->
      let n = Rounds.node t v in
      Grp_node.corrupt_list n
        (Antlist.of_levels
           [ [ (v, Mark.Clear) ]; [ (100 + v, Mark.Clear) ]; [ (200 + v, Mark.Clear) ] ]);
      Grp_node.corrupt_quarantine n [ (100 + v, 0); (200 + v, 0) ])
    (Rounds.node_ids t);
  settle t rng;
  for _ = 1 to 20 do
    ignore (Rounds.round ~jitter:0.1 ~rng t);
    List.iter
      (fun v ->
        Node_id.Set.iter
          (fun u -> check "no ghost in any list" true (u < 100))
          (Antlist.ids (Grp_node.antlist (Rounds.node t v))))
      (Rounds.node_ids t)
  done

(* Propositions 3-6 (propagation / no-propagation / double-marked edges /
   distinct subgraphs): for nodes farther apart than Dmax, each eventually
   disappears from the other's list, and the H-subgraphs become distinct;
   nodes within a group's radius appear in each other's lists. *)
let props_3_to_6_subgraphs () =
  let dmax = 2 in
  let g = Gen.line 7 in
  let t = Rounds.create ~config:(Config.make ~dmax ()) g in
  let rng = Rng.create 3 in
  settle t rng;
  (* Stability reached: check the suffix properties over a window. *)
  for _ = 1 to 15 do
    ignore (Rounds.round ~jitter:0.1 ~rng t);
    List.iter
      (fun v ->
        List.iter
          (fun u ->
            if Paths.dist g v u > dmax then begin
              check "far node absent from list (Props 3,5)" false
                (Node_id.Set.mem u (Antlist.clear_ids (Grp_node.antlist (Rounds.node t v))));
              (* Distinct subgraphs (Prop 6): no node carries both. *)
              List.iter
                (fun w ->
                  let lw = Antlist.clear_ids (Grp_node.antlist (Rounds.node t w)) in
                  check "H_u and H_v distinct (Prop 6)" false
                    (Node_id.Set.mem u lw && Node_id.Set.mem v lw
                    && Paths.dist g v u > 2 * dmax))
                (Rounds.node_ids t)
            end)
          (Rounds.node_ids t))
      (Rounds.node_ids t)
  done;
  (* Propagation (Prop 4): members of the same final group carry each
     other. *)
  let c = snapshot t g in
  List.iter
    (fun v ->
      let group = Cfg.omega c v in
      Node_id.Set.iter
        (fun u ->
          check "group members in each other's lists (Prop 4)" true
            (Node_id.Set.mem u (Antlist.clear_ids (Grp_node.antlist (Rounds.node t v)))))
        group)
    (Rounds.node_ids t)

(* Proposition 7 (Agreement), 8 (Safety), 12 (Maximality): the fixed-point
   configuration satisfies ΠA ∧ ΠS ∧ ΠM across topologies and seeds. *)
let props_7_8_12_legitimacy () =
  List.iter
    (fun (g, dmax, seed) ->
      let t = Rounds.create ~config:(Config.make ~dmax ()) g in
      let rng = Rng.create seed in
      settle t rng;
      match P.legitimate ~dmax (snapshot t g) with
      | None -> ()
      | Some v -> Alcotest.failf "legitimacy: %a" P.pp_violation v)
    [
      (Gen.line 9, 2, 4);
      (Gen.ring 10, 2, 5);
      (Gen.grid 4 4, 3, 6);
      (Gen.group_loop ~groups:4 ~group_size:3, 2, 7);
      (Dgs_workload.Harness.rgg ~seed:8 ~n:24 (), 3, 8);
    ]

(* Propositions 9-11 (nee/ndg decrease): starting from a non-maximal
   configuration of two mergeable groups, the number of distinct groups
   strictly decreases — the merge completes. *)
let props_9_to_11_merge_progress () =
  let dmax = 3 in
  let g = Graph.of_edges [ (0, 1); (2, 3) ] in
  let t = Rounds.create ~config:(Config.make ~dmax ()) g in
  let rng = Rng.create 9 in
  settle t rng;
  let groups_before = List.length (Cfg.groups (snapshot t g)) in
  check "two groups before" true (groups_before = 2);
  Graph.add_edge g 1 2;
  Rounds.set_graph t g;
  settle t rng;
  let groups_after = List.length (Cfg.groups (snapshot t g)) in
  check "ndg decreased (Props 9-11)" true (groups_after < groups_before)

(* Proposition 13 (compatible lists): a merge is admitted exactly when the
   resulting diameter stays within Dmax — checked on concrete group pairs
   (with the conjunction repair of DESIGN.md Section 5 item 6). *)
let prop_13_compatibility () =
  let dmax = 3 in
  (* Legal: two cliques of 4 joined by an edge -> diameter 3. *)
  let legal = Gen.barbell 4 4 in
  let t = Rounds.create ~config:(Config.make ~dmax ()) legal in
  let rng = Rng.create 10 in
  settle t rng;
  check "legal merge happens" true
    (List.length (Cfg.groups (snapshot t legal)) = 1);
  (* Illegal for dmax 2: the same shape must stay two groups. *)
  let dmax' = 2 in
  let t' = Rounds.create ~config:(Config.make ~dmax:dmax' ()) (Gen.barbell 4 4) in
  settle t' rng;
  let c = snapshot t' (Gen.barbell 4 4) in
  check "illegal merge refused" true (List.length (Cfg.groups c) >= 2);
  check "still safe" true (P.safety ~dmax:dmax' c = None)

(* Proposition 14 (best effort, ΠT ⇒ ΠC): on a static topology (ΠT holds
   at every transition) no view ever loses a member once formed. *)
let prop_14_continuity_static () =
  let dmax = 3 in
  let g = Dgs_workload.Harness.rgg ~seed:11 ~n:20 () in
  let t = Rounds.create ~config:(Config.make ~dmax ()) g in
  let rng = Rng.create 11 in
  settle t rng;
  for _ = 1 to 60 do
    let infos = Rounds.round ~jitter:0.1 ~rng t in
    Node_id.Map.iter
      (fun _ i ->
        check "no eviction on a static topology (Prop 14)" true
          (Node_id.Set.is_empty i.Grp_node.view_removed))
      infos
  done

let suite =
  [
    ("Prop 1: lists bounded by Dmax+1", `Quick, prop_1_dmax);
    ("Prop 2: ghosts flushed forever", `Quick, prop_2_exist);
    ("Props 3-6: (no-)propagation and distinct subgraphs", `Quick, props_3_to_6_subgraphs);
    ("Props 7+8+12: legitimacy at the fixpoint", `Slow, props_7_8_12_legitimacy);
    ("Props 9-11: merge progress", `Quick, props_9_to_11_merge_progress);
    ("Prop 13: compatibility iff diameter fits", `Quick, prop_13_compatibility);
    ("Prop 14: continuity on static topology", `Slow, prop_14_continuity_static);
  ]
