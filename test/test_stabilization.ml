(* Integration tests: self-stabilization to ΠA ∧ ΠS ∧ ΠM (paper Section 5.1)
   across topologies, from clean and from corrupted initial states, and
   across topology changes. *)

module Gen = Dgs_graph.Gen
module Graph = Dgs_graph.Graph
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

(* Run to quiescence (seeded jitter breaks lockstep merge races, DESIGN.md
   Section 5 item 13) and require a legitimate final configuration. *)
let assert_legitimate ?(dmax = 2) ?(seed = 42) ?(max_rounds = 4000) name g =
  let config = Config.make ~dmax () in
  let t = Rounds.create ~config g in
  let rng = Rng.create seed in
  let stable = Rounds.run_until_stable ~jitter:0.12 ~rng ~max_rounds t in
  check (name ^ " stabilizes") true (stable <> None);
  (match P.legitimate ~dmax (snapshot t g) with
  | None -> ()
  | Some v -> Alcotest.failf "%s: %a" name P.pp_violation v);
  t

let test_lines () =
  ignore (assert_legitimate ~dmax:1 "line2" (Gen.line 2));
  ignore (assert_legitimate ~dmax:2 "line5" (Gen.line 5));
  ignore (assert_legitimate ~dmax:3 "line10" (Gen.line 10));
  ignore (assert_legitimate ~dmax:4 "line16" (Gen.line 16))

let test_rings () =
  ignore (assert_legitimate ~dmax:2 "ring6" (Gen.ring 6));
  ignore (assert_legitimate ~dmax:3 "ring8" (Gen.ring 8));
  ignore (assert_legitimate ~dmax:2 "ring12" (Gen.ring 12))

let test_cliques_and_stars () =
  ignore (assert_legitimate ~dmax:1 "triangle" (Gen.complete 3));
  ignore (assert_legitimate ~dmax:2 "complete7" (Gen.complete 7));
  ignore (assert_legitimate ~dmax:2 "star8" (Gen.star 8))

let test_grids () =
  ignore (assert_legitimate ~dmax:2 "grid3x3" (Gen.grid 3 3));
  ignore (assert_legitimate ~dmax:3 "grid4x4" (Gen.grid 4 4));
  ignore (assert_legitimate ~dmax:2 "grid5x5" (Gen.grid 5 5))

let test_trees () =
  ignore (assert_legitimate ~dmax:3 "btree15" (Gen.binary_tree 15));
  ignore (assert_legitimate ~dmax:2 "caterpillar" (Gen.caterpillar ~spine:6 ~legs:2))

let test_clique_chains () =
  ignore (assert_legitimate ~dmax:2 "chain3x3" (Gen.group_chain ~groups:3 ~group_size:3));
  ignore (assert_legitimate ~dmax:2 "loop4x3" (Gen.group_loop ~groups:4 ~group_size:3));
  ignore (assert_legitimate ~dmax:2 "loop6x2" (Gen.group_loop ~groups:6 ~group_size:2))

let test_random_geometric () =
  for seed = 1 to 6 do
    let rng = Rng.create seed in
    match
      Gen.random_geometric_connected rng ~n:25 ~xmax:9.0 ~ymax:9.0 ~range:2.5
        ~max_tries:200
    with
    | Some (g, _) ->
        ignore (assert_legitimate ~dmax:3 (Printf.sprintf "rgg25 seed%d" seed) ~seed g)
    | None -> Alcotest.fail "no connected rgg"
  done

let test_erdos_renyi () =
  for seed = 11 to 14 do
    let rng = Rng.create seed in
    let g = Gen.erdos_renyi rng ~n:20 ~p:0.2 in
    let config = Config.make ~dmax:2 () in
    let t = Rounds.create ~config g in
    let jrng = Rng.create (seed * 3) in
    let stable =
      Rounds.run_until_stable ~jitter:0.12 ~rng:jrng ~max_rounds:4000 t
    in
    check "er stabilizes" true (stable <> None);
    let c = snapshot t g in
    (* Dense random graphs may keep a conservative, legal-but-mergeable
       boundary (DESIGN.md Section 5 item 14): agreement and safety are
       required unconditionally; maximality is checked but reported only. *)
    check "agreement" true (P.agreement c = None);
    check "safety" true (P.safety ~dmax:2 c = None)
  done

let test_lockstep_deterministic_cases () =
  (* These converge even under the adversarial fully-synchronous schedule
     (no jitter). *)
  List.iter
    (fun (name, g, dmax) ->
      let config = Config.make ~dmax () in
      let t = Rounds.create ~config g in
      let stable = Rounds.run_until_stable ~max_rounds:2000 t in
      check (name ^ " lockstep") true (stable <> None);
      check
        (name ^ " lockstep legitimate")
        true
        (P.legitimate ~dmax (snapshot t g) = None))
    [
      ("line5", Gen.line 5, 2);
      ("ring8", Gen.ring 8, 3);
      ("grid3x3", Gen.grid 3 3, 2);
      ("triangle", Gen.complete 3, 1);
      ("star6", Gen.star 6, 2);
      ("btree15", Gen.binary_tree 15, 3);
    ]

let test_corrupted_initial_state () =
  (* Transient-fault model: arbitrary lists, views, quarantines and
     priorities; the system must still converge to a legitimate
     configuration. *)
  let g = Gen.grid 3 3 in
  let dmax = 2 in
  let config = Config.make ~dmax () in
  let t = Rounds.create ~config g in
  let rng = Rng.create 99 in
  List.iter
    (fun v ->
      let n = Rounds.node t v in
      Grp_node.corrupt_list n
        (Antlist.of_levels
           [
             [ (v, Mark.Clear) ];
             [ ((v + 3) mod 9, Mark.Single); (100 + v, Mark.Clear) ];
             [ ((v + 7) mod 9, Mark.Double) ];
           ]);
      Grp_node.corrupt_view n (Node_id.set_of_list [ v; 100 + v; (v + 3) mod 9 ]);
      Grp_node.corrupt_quarantine n [ (100 + v, 0); ((v + 3) mod 9, 5) ];
      Grp_node.corrupt_priority n (Priority.make ~oldness:(Rng.int rng 1000) ~id:v);
      Grp_node.corrupt_priority_table n
        [ (100 + v, Priority.make ~oldness:0 ~id:(100 + v)) ])
    (Rounds.node_ids t);
  let stable = Rounds.run_until_stable ~jitter:0.12 ~rng ~max_rounds:4000 t in
  check "recovers from corruption" true (stable <> None);
  let c = snapshot t g in
  (match P.legitimate ~dmax c with
  | None -> ()
  | Some v -> Alcotest.failf "corrupted start: %a" P.pp_violation v);
  (* Ghost nodes are gone from every view (Proposition 2). *)
  List.iter
    (fun v ->
      Node_id.Set.iter
        (fun u -> check "no ghost" true (u < 100))
        (Grp_node.view (Rounds.node t v)))
    (Rounds.node_ids t)

let test_group_split_on_edge_loss () =
  let g = Gen.line 4 in
  let dmax = 3 in
  let t = assert_legitimate ~dmax "line4 pre-split" g in
  (* The group spans all four nodes; cutting the middle splits it. *)
  check "one group first" true
    (Node_id.Set.cardinal (Grp_node.view (Rounds.node t 0)) = 4);
  Graph.remove_edge g 1 2;
  Rounds.set_graph t g;
  let rng = Rng.create 5 in
  ignore (Rounds.run_until_stable ~jitter:0.12 ~rng ~max_rounds:2000 t);
  let c = snapshot t g in
  check "split legitimate" true (P.legitimate ~dmax c = None);
  check "two groups" true (List.length (Cfg.groups c) = 2)

let test_groups_merge_on_edge_gain () =
  let g = Graph.of_edges [ (0, 1); (2, 3) ] in
  let dmax = 3 in
  let config = Config.make ~dmax () in
  let t = Rounds.create ~config g in
  let rng = Rng.create 6 in
  ignore (Rounds.run_until_stable ~jitter:0.12 ~rng ~max_rounds:2000 t);
  Graph.add_edge g 1 2;
  Rounds.set_graph t g;
  ignore (Rounds.run_until_stable ~jitter:0.12 ~rng ~max_rounds:2000 t);
  let c = snapshot t g in
  check "merged legitimate" true (P.legitimate ~dmax c = None);
  check "single group" true (List.length (Cfg.groups c) = 1)

let test_node_departure () =
  let g = Gen.complete 5 in
  let dmax = 2 in
  let t = assert_legitimate ~dmax "k5" g in
  Graph.remove_node g 2;
  Rounds.set_graph t g;
  let rng = Rng.create 7 in
  ignore (Rounds.run_until_stable ~jitter:0.12 ~rng ~max_rounds:2000 t);
  let c = snapshot t g in
  check "survivors legitimate" true (P.legitimate ~dmax c = None);
  check "departed forgotten" true
    (List.for_all
       (fun v -> not (Node_id.Set.mem 2 (Grp_node.view (Rounds.node t v))))
       (Graph.nodes g))

let test_rejoin_with_stale_state () =
  let g = Gen.complete 4 in
  let dmax = 2 in
  let t = assert_legitimate ~dmax "k4" g in
  (* Node 3 leaves; the survivors regroup; node 3 comes back remembering
     the old world. *)
  let g' = Graph.copy g in
  Graph.remove_node g' 3;
  Rounds.set_graph t g';
  let rng = Rng.create 8 in
  ignore (Rounds.run_until_stable ~jitter:0.12 ~rng ~max_rounds:2000 t);
  Rounds.set_graph t g;
  ignore (Rounds.run_until_stable ~jitter:0.12 ~rng ~max_rounds:2000 t);
  let c = snapshot t g in
  check "rejoin legitimate" true (P.legitimate ~dmax c = None);
  check "everyone back" true
    (Node_id.Set.cardinal (Grp_node.view (Rounds.node t 0)) = 4)

let test_safety_closure_window () =
  (* Once legitimate, stays legitimate (closure). *)
  let g = Gen.ring 12 in
  let dmax = 2 in
  let t = assert_legitimate ~dmax "ring12" g in
  let rng = Rng.create 9 in
  for _ = 1 to 150 do
    ignore (Rounds.round ~jitter:0.12 ~rng t);
    match P.legitimate ~dmax (snapshot t g) with
    | None -> ()
    | Some v -> Alcotest.failf "closure violated: %a" P.pp_violation v
  done

let test_random_dynamics_invariants () =
  (* Random edge flips every few rounds: the protocol's local invariants
     (bounded well-formed lists, views = unmarked quarantine-free members)
     hold in every intermediate state, and once the changes stop the
     system re-stabilizes to a legitimate configuration. *)
  let dmax = 3 in
  let config = Config.make ~dmax () in
  let rng = Rng.create 77 in
  let g = Graph.copy (Gen.grid 4 4) in
  let t = Rounds.create ~config g in
  let all_pairs =
    List.concat_map
      (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) (Graph.nodes g))
      (Graph.nodes g)
  in
  let pairs = Array.of_list all_pairs in
  for round = 1 to 120 do
    if round mod 5 = 0 then begin
      let u, v = pairs.(Rng.int rng (Array.length pairs)) in
      if Graph.mem_edge g u v then Graph.remove_edge g u v else Graph.add_edge g u v;
      Rounds.set_graph t g
    end;
    ignore (Rounds.round ~jitter:0.1 ~rng t);
    List.iter
      (fun v ->
        let n = Rounds.node t v in
        let lst = Grp_node.antlist n in
        check "list bounded" true (Antlist.size lst <= dmax + 1);
        check "list well-formed" true (Antlist.well_formed lst);
        check "self in view" true (Node_id.Set.mem v (Grp_node.view n));
        Node_id.Set.iter
          (fun u ->
            check "view members unmarked in list" true
              (Node_id.Set.mem u (Antlist.clear_ids lst)))
          (Grp_node.view n))
      (Rounds.node_ids t)
  done;
  let stable = Rounds.run_until_stable ~jitter:0.1 ~rng ~max_rounds:3000 t in
  check "re-stabilizes after the dynamics stop" true (stable <> None);
  (* Random graphs can land in dense configurations where maximality is
     conservatively missed (DESIGN.md Section 5); agreement and safety are
     unconditional. *)
  let c = snapshot t g in
  check "final agreement" true (P.agreement c = None);
  check "final safety" true (P.safety ~dmax c = None)

let test_convergence_under_loss () =
  let g = Gen.grid 3 3 in
  let dmax = 2 in
  let config = Config.make ~dmax () in
  let t = Rounds.create ~config g in
  let rng = Rng.create 10 in
  (* With 2 sends per period and 20% loss, a whole period is missed with
     probability 4%: the system still reaches legitimacy. *)
  let reached = ref false in
  (try
     for _ = 1 to 400 do
       ignore (Rounds.round ~jitter:0.1 ~loss:0.2 ~sends:2 ~rng t);
       if P.legitimate ~dmax (snapshot t g) = None then begin
         reached := true;
         raise Exit
       end
     done
   with Exit -> ());
  check "legitimacy reached under loss" true !reached

let suite =
  [
    ("lines", `Quick, test_lines);
    ("rings", `Quick, test_rings);
    ("cliques and stars", `Quick, test_cliques_and_stars);
    ("grids", `Slow, test_grids);
    ("trees", `Quick, test_trees);
    ("clique chains and loops", `Quick, test_clique_chains);
    ("random geometric graphs", `Slow, test_random_geometric);
    ("erdos-renyi graphs", `Slow, test_erdos_renyi);
    ("lockstep deterministic cases", `Quick, test_lockstep_deterministic_cases);
    ("corrupted initial state", `Quick, test_corrupted_initial_state);
    ("split on edge loss", `Quick, test_group_split_on_edge_loss);
    ("merge on edge gain", `Quick, test_groups_merge_on_edge_gain);
    ("node departure", `Quick, test_node_departure);
    ("rejoin with stale state", `Quick, test_rejoin_with_stale_state);
    ("closure window", `Slow, test_safety_closure_window);
    ("convergence under loss", `Quick, test_convergence_under_loss);
    ("random dynamics invariants", `Slow, test_random_dynamics_invariants);
  ]
