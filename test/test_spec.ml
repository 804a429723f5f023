(* Unit tests for the specification layer: Ω extraction and the predicates
   of paper Section 3. *)

module Graph = Dgs_graph.Graph
module Gen = Dgs_graph.Gen
module Paths = Dgs_graph.Paths
module Cfg = Dgs_spec.Configuration
module P = Dgs_spec.Predicates
module Membership = Dgs_spec.Membership
open Dgs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ids = Alcotest.testable Node_id.pp_set Node_id.Set.equal

let cfg graph views =
  Cfg.make ~graph
    ~views:
      (List.fold_left
         (fun acc (v, members) -> Node_id.Map.add v (Node_id.set_of_list members) acc)
         Node_id.Map.empty views)

let agreed_pairs = [ (0, [ 0; 1 ]); (1, [ 0; 1 ]); (2, [ 2 ]) ]

let test_omega_agreement () =
  let c = cfg (Gen.line 3) agreed_pairs in
  Alcotest.check ids "omega of member" (Node_id.set_of_list [ 0; 1 ]) (Cfg.omega c 0);
  Alcotest.check ids "omega singleton" (Node_id.Set.singleton 2) (Cfg.omega c 2)

let test_omega_collapses_disagreement () =
  let c = cfg (Gen.line 3) [ (0, [ 0; 1 ]); (1, [ 0; 1; 2 ]); (2, [ 2 ]) ] in
  Alcotest.check ids "disagreeing view collapses" (Node_id.Set.singleton 0) (Cfg.omega c 0)

let test_omega_requires_self () =
  let c = cfg (Gen.line 2) [ (0, [ 1 ]); (1, [ 1 ]) ] in
  Alcotest.check ids "self-less view collapses" (Node_id.Set.singleton 0) (Cfg.omega c 0)

let test_groups_partition () =
  let c = cfg (Gen.line 4) [ (0, [ 0; 1 ]); (1, [ 0; 1 ]); (2, [ 2; 3 ]); (3, [ 2; 3 ]) ] in
  check_int "two groups" 2 (List.length (Cfg.groups c))

let test_default_view () =
  let c = cfg (Gen.line 2) [] in
  Alcotest.check ids "unknown node gets singleton" (Node_id.Set.singleton 1) (Cfg.view c 1)

let test_agreement_predicate () =
  check "agreed config" true (P.agreement (cfg (Gen.line 3) agreed_pairs) = None);
  let bad = cfg (Gen.line 3) [ (0, [ 0; 1 ]); (1, [ 1 ]); (2, [ 2 ]) ] in
  check "asymmetric views" false (P.agreement bad = None);
  let ghost = cfg (Gen.line 2) [ (0, [ 0; 9 ]); (1, [ 1 ]) ] in
  check "non-existing member" false (P.agreement ghost = None);
  let selfless = cfg (Gen.line 2) [ (0, [ 1 ]); (1, [ 1 ]) ] in
  check "missing self" false (P.agreement selfless = None)

let test_safety_predicate () =
  let line5 = Gen.line 5 in
  let all = [ 0; 1; 2; 3; 4 ] in
  let wide = cfg line5 (List.map (fun v -> (v, all)) all) in
  check "diameter 4 > 2" false (P.safety ~dmax:2 wide = None);
  check "diameter 4 <= 4" true (P.safety ~dmax:4 wide = None);
  (* A group that is disconnected inside itself is unsafe even if its
     members are pairwise close through outsiders. *)
  let split = cfg line5 [ (0, [ 0; 2 ]); (2, [ 0; 2 ]); (1, [ 1 ]); (3, [ 3 ]); (4, [ 4 ]) ] in
  check "internally disconnected group" false (P.safety ~dmax:2 split = None)

let test_maximality_predicate () =
  let line4 = Gen.line 4 in
  let merged = cfg line4 [ (0, [ 0; 1 ]); (1, [ 0; 1 ]); (2, [ 2; 3 ]); (3, [ 2; 3 ]) ] in
  (* {0,1} ∪ {2,3} has diameter 3 > 2: maximal for dmax = 2. *)
  check "maximal partition" true (P.maximality ~dmax:2 merged = None);
  check "mergeable pair flagged" false (P.maximality ~dmax:3 merged = None);
  let singletons = cfg (Gen.line 2) [ (0, [ 0 ]); (1, [ 1 ]) ] in
  check "two adjacent singletons not maximal" false (P.maximality ~dmax:1 singletons = None)

let test_legitimate_combines () =
  let good = cfg (Gen.line 3) [ (0, [ 0; 1; 2 ]); (1, [ 0; 1; 2 ]); (2, [ 0; 1; 2 ]) ] in
  check "legitimate" true (P.legitimate ~dmax:2 good = None);
  check "dmax too small" false (P.legitimate ~dmax:1 good = None)

let test_topology_preserved () =
  let before = cfg (Gen.line 3) [ (0, [ 0; 1; 2 ]); (1, [ 0; 1; 2 ]); (2, [ 0; 1; 2 ]) ] in
  let g_broken = Graph.of_edges ~nodes:[ 0; 1; 2 ] [ (0, 1) ] in
  let after_broken = Cfg.make ~graph:g_broken ~views:before.Cfg.views in
  check "link loss breaks \xCE\xA0T" false (P.topology_preserved ~dmax:2 before after_broken = None);
  let g_extra = Gen.complete 3 in
  let after_extra = Cfg.make ~graph:g_extra ~views:before.Cfg.views in
  check "extra links preserve \xCE\xA0T" true (P.topology_preserved ~dmax:2 before after_extra = None)

let test_continuity () =
  let v0 = [ (0, [ 0; 1 ]); (1, [ 0; 1 ]) ] in
  let before = cfg (Gen.line 2) v0 in
  let same = cfg (Gen.line 2) v0 in
  check "no change" true (P.continuity before same = None);
  let grown = cfg (Gen.line 2) [ (0, [ 0; 1 ]); (1, [ 0; 1 ]) ] in
  check "growth fine" true (P.continuity before grown = None);
  let shrunk = cfg (Gen.line 2) [ (0, [ 0 ]); (1, [ 0; 1 ]) ] in
  check "eviction flagged" false (P.continuity before shrunk = None)

let test_best_effort () =
  let before = cfg (Gen.line 2) [ (0, [ 0; 1 ]); (1, [ 0; 1 ]) ] in
  (* ΠT broken (edge vanished): an eviction is excused. *)
  let gone = Cfg.make ~graph:(Graph.of_edges ~nodes:[ 0; 1 ] []) ~views:(cfg (Gen.line 2) [ (0, [ 0 ]); (1, [ 1 ]) ]).Cfg.views in
  check "excused under broken \xCE\xA0T" true (P.best_effort ~dmax:1 before gone = None);
  (* ΠT holds but a member vanished: the theorem is violated. *)
  let betrayed = cfg (Gen.line 2) [ (0, [ 0 ]); (1, [ 0; 1 ]) ] in
  check "violation under preserved \xCE\xA0T" false (P.best_effort ~dmax:1 before betrayed = None)

let test_violation_report () =
  let bad = cfg (Gen.line 3) [ (0, [ 0; 1 ]); (1, [ 1 ]); (2, [ 2 ]) ] in
  match P.agreement bad with
  | Some v ->
      check "predicate name" true (v.P.predicate = "agreement");
      check "witness present" true (v.P.subject <> [])
  | None -> Alcotest.fail "expected violation"

(* The excuse a monitor over an execution applies to one step: a pair
   splits in the same transition its edge disappears.  The step breaches
   continuity and ΠT, and the best-effort clause excuses it. *)
let test_monitor_excuses () =
  let pair = cfg (Gen.line 2) [ (0, [ 0; 1 ]); (1, [ 0; 1 ]) ] in
  let split =
    Cfg.make
      ~graph:(Graph.of_edges ~nodes:[ 0; 1 ] [])
      ~views:(cfg (Gen.line 2) [ (0, [ 0 ]); (1, [ 1 ]) ]).Cfg.views
  in
  check "breach recorded" false (P.continuity pair split = None);
  check "pt breach" false (P.topology_preserved ~dmax:1 pair split = None);
  check "breach excused" true (P.best_effort ~dmax:1 pair split = None)

(* --- the membership ledger --- *)

(* On the path 0-1-2-3 at Dmax 2, node 0 drops its whole view
   {0,1,2,3}: members 1 and 2 are still within two hops, but the old
   view has diameter 3 in the current graph, so its ΠT failed and the
   eviction is justified.  Node 1 drops 2 from {1,2}, whose diameter is
   1: nothing forced it. *)
let test_membership_unjustified_rule () =
  let g = Gen.line 4 in
  let ledger =
    Membership.create ~dmax:2
      (cfg g [ (0, [ 0; 1; 2; 3 ]); (1, [ 1; 2 ]); (2, [ 2 ]); (3, [ 3 ]) ])
  in
  let step =
    Membership.observe ledger (cfg g [ (0, [ 0 ]); (1, [ 1 ]); (2, [ 2 ]); (3, [ 3 ]) ])
  in
  Alcotest.check ids "per-node \xCE\xA0T breach" (Node_id.Set.singleton 0)
    step.Membership.breached;
  Alcotest.(check (list (pair int (list int))))
    "evictors and their evictions"
    [ (0, [ 1; 2; 3 ]); (1, [ 2 ]) ]
    (List.map
       (fun (v, s) -> (v, Node_id.Set.elements s))
       (Node_id.Map.bindings step.Membership.evicted));
  let m = Membership.summary ledger in
  check_int "evictions" 4 m.Membership.evictions;
  check_int "additions" 0 m.Membership.additions;
  check_int "only node 1's eviction is unjustified" 1 m.Membership.unjustified_evictions;
  check_int "node rounds" 4 m.Membership.node_rounds

(* Lifetimes count rounds per unchanged view, the open stretches
   included; a member farther than Dmax is stale. *)
let test_membership_lifetime_and_stale () =
  let g = Gen.line 4 in
  let apart = cfg g [ (0, [ 0; 3 ]); (3, [ 0; 3 ]) ] in
  let ledger = Membership.create ~dmax:2 (cfg g []) in
  List.iter
    (fun c -> ignore (Membership.observe ledger c))
    [ apart; apart; cfg g [] ];
  let m = Membership.summary ledger in
  check_int "additions" 2 m.Membership.additions;
  check_int "evictions" 2 m.Membership.evictions;
  (* nodes 0 and 3: a 2-round stretch, then a 1-round one; 1 and 2: 3 *)
  Alcotest.(check (float 1e-9)) "mean lifetime" 2.0
    m.Membership.lifetime.Dgs_util.Stats.mean;
  check_int "stretches" 6 m.Membership.lifetime.Dgs_util.Stats.count;
  Alcotest.(check (float 1e-9)) "every shared pair is stale" 1.0
    m.Membership.stale_member_fraction

(* The bounded BFS answers the question the unbounded diameter of the
   induced subgraph does.  Members are drawn from 0..11 on graphs of at
   most 9 nodes, so sets are empty, singletons, disconnected or hold ids
   absent from the graph. *)
let prop_group_diameter_bounded =
  let gen =
    QCheck.Gen.(
      let* n = int_range 0 9 in
      let node = int_bound (max 0 (n - 1)) in
      let* edges = list_size (int_range 0 (2 * n)) (pair node node) in
      let* members = list_size (int_range 0 7) (int_bound 11) in
      let* dmax = int_range 0 4 in
      return (n, List.filter (fun (u, v) -> u <> v) edges, members, dmax))
  in
  let print (n, edges, members, dmax) =
    Printf.sprintf "n=%d dmax=%d edges=[%s] members=[%s]" n dmax
      (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges))
      (String.concat ";" (List.map string_of_int members))
  in
  QCheck.Test.make ~count:500
    ~name:"group_diameter_ok = induced diameter <= dmax"
    (QCheck.make ~print gen)
    (fun (n, edges, members, dmax) ->
      let g = Graph.of_edges ~nodes:(List.init n Fun.id) edges in
      let s = Node_id.set_of_list members in
      P.group_diameter_ok ~dmax g s = (Paths.diameter_of_set g s <= dmax))

let suite =
  [
    ("omega under agreement", `Quick, test_omega_agreement);
    ("omega collapses disagreement", `Quick, test_omega_collapses_disagreement);
    ("omega requires self", `Quick, test_omega_requires_self);
    ("groups partition", `Quick, test_groups_partition);
    ("default singleton view", `Quick, test_default_view);
    ("agreement", `Quick, test_agreement_predicate);
    ("safety", `Quick, test_safety_predicate);
    ("maximality", `Quick, test_maximality_predicate);
    ("legitimate", `Quick, test_legitimate_combines);
    ("topology preserved", `Quick, test_topology_preserved);
    ("continuity", `Quick, test_continuity);
    ("best effort", `Quick, test_best_effort);
    ("violation reporting", `Quick, test_violation_report);
    ("membership: unjustified means the old view kept \xCE\xA0T", `Quick,
      test_membership_unjustified_rule);
    ("membership: lifetimes and stale members", `Quick, test_membership_lifetime_and_stale);
    ("monitor excuses via \xC3\x8E\xC2\xA0T", `Quick, test_monitor_excuses);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_group_diameter_bounded ]
