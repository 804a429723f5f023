(* Unit tests for the k-clustering baselines. *)

module Graph = Dgs_graph.Graph
module Gen = Dgs_graph.Gen
module Paths = Dgs_graph.Paths
module Maxmin = Dgs_baselines.Maxmin
module Lowest_id = Dgs_baselines.Lowest_id
module Recluster = Dgs_baselines.Recluster
module E6 = Dgs_workload.E6_baselines
module Membership = Dgs_spec.Membership
open Dgs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let covers_all g clusters =
  let members =
    Node_id.Map.fold (fun _ s acc -> Node_id.Set.union s acc) clusters Node_id.Set.empty
  in
  Node_id.Set.equal members (Node_id.set_of_list (Graph.nodes g))

let disjoint clusters =
  let total =
    Node_id.Map.fold (fun _ s acc -> acc + Node_id.Set.cardinal s) clusters 0
  in
  let union =
    Node_id.Map.fold (fun _ s acc -> Node_id.Set.union s acc) clusters Node_id.Set.empty
  in
  total = Node_id.Set.cardinal union

let radius_ok g d clusters =
  Node_id.Map.for_all
    (fun head members ->
      Node_id.Set.for_all (fun v -> Paths.dist g head v <= d) members)
    clusters

(* --- maxmin --- *)

let test_maxmin_partition () =
  let g = Gen.line 10 in
  let r = Maxmin.run ~d:2 g in
  check "covers" true (covers_all g r.Maxmin.clusters);
  check "disjoint" true (disjoint r.Maxmin.clusters)

let test_maxmin_heads_self () =
  let g = Gen.grid 4 4 in
  let r = Maxmin.run ~d:2 g in
  Node_id.Map.iter
    (fun head members ->
      check "head in own cluster" true (Node_id.Set.mem head members);
      check "head heads itself" true (Node_id.Map.find head r.Maxmin.head = head))
    r.Maxmin.clusters

let test_maxmin_complete () =
  (* In a clique, flood-max crowns the largest id within one round. *)
  let g = Gen.complete 6 in
  let r = Maxmin.run ~d:1 g in
  check_int "one cluster" 1 (Node_id.Map.cardinal r.Maxmin.clusters);
  check "head is max id" true (Node_id.Map.mem 5 r.Maxmin.clusters)

let test_maxmin_singleton () =
  let g = Graph.of_edges ~nodes:[ 3 ] [] in
  let r = Maxmin.run ~d:2 g in
  check "isolated node is its own head" true (Node_id.Map.find 3 r.Maxmin.head = 3)

let test_maxmin_views () =
  let g = Gen.line 6 in
  let r = Maxmin.run ~d:2 g in
  let views = Maxmin.views r in
  check_int "one view per node" 6 (Node_id.Map.cardinal views);
  Node_id.Map.iter (fun v s -> check "self in view" true (Node_id.Set.mem v s)) views

let test_maxmin_validation () =
  Alcotest.check_raises "d 0" (Invalid_argument "Maxmin.run: d must be >= 1") (fun () ->
      ignore (Maxmin.run ~d:0 (Gen.line 2)))

let test_maxmin_hand_example () =
  (* Line 0-1-2-3-4 with d=1, worked by hand.  Flood-max values after one
     round: [1;2;3;4;4]; flood-min over those: [1;1;2;3;4].  Rule 1 (own
     id seen during flood-min) crowns 1, 2, 3 and 4 — a node's id returns
     through the neighbor it dominated — and node 0 joins 1 via rule 2.
     Dense heads are characteristic of Max-Min at d=1 on a path. *)
  let r = Maxmin.run ~d:1 (Gen.line 5) in
  let head v = Node_id.Map.find v r.Maxmin.head in
  check_int "node 0 joins 1" 1 (head 0);
  check_int "node 1 heads itself" 1 (head 1);
  check_int "node 2 heads itself" 2 (head 2);
  check_int "node 3 heads itself" 3 (head 3);
  check_int "node 4 heads itself" 4 (head 4)

(* --- lowest id --- *)

let test_lowest_id_partition () =
  let g = Gen.grid 4 4 in
  let r = Lowest_id.run ~k:2 g in
  check "covers" true (covers_all g r.Lowest_id.clusters);
  check "disjoint" true (disjoint r.Lowest_id.clusters);
  check "radius bound" true (radius_ok g 2 r.Lowest_id.clusters)

let test_lowest_id_greedy () =
  let g = Gen.line 7 in
  let r = Lowest_id.run ~k:2 g in
  (* Node 0 claims {0,1,2}; node 3 claims {3,4,5}; node 6 claims {6}. *)
  check "0 heads" true (Node_id.Map.find 0 r.Lowest_id.head = 0);
  check "1 follows 0" true (Node_id.Map.find 1 r.Lowest_id.head = 0);
  check "3 heads" true (Node_id.Map.find 3 r.Lowest_id.head = 3);
  check "6 heads" true (Node_id.Map.find 6 r.Lowest_id.head = 6)

let test_lowest_id_radius_varies () =
  let g = Gen.line 9 in
  let r1 = Lowest_id.run ~k:1 g in
  let r3 = Lowest_id.run ~k:3 g in
  check "bigger k, fewer clusters" true
    (Node_id.Map.cardinal r3.Lowest_id.clusters
    < Node_id.Map.cardinal r1.Lowest_id.clusters)

(* --- recluster adapter --- *)

let test_cluster_views () =
  let g = Gen.line 6 in
  let views = Recluster.cluster (Recluster.Lowest_id 2) g in
  check_int "all nodes" 6 (Node_id.Map.cardinal views)

(* Baselines replayed through E6's path into the membership ledger. *)
let replay algo snapshots =
  let configs = E6.reclustered algo ~period:1 snapshots in
  E6.replay ~dmax:4 ~start:(List.hd configs) configs

let test_replay_static_no_churn () =
  let g = Gen.grid 3 3 in
  let m = replay (Recluster.Maxmin 2) [ g; g; g ] in
  check_int "no eviction" 0 m.Membership.evictions;
  check_int "no addition" 0 m.Membership.additions;
  check_int "node rounds counted" 27 m.Membership.node_rounds

let test_replay_detects_churn () =
  let g1 = Gen.line 6 in
  let g2 = Graph.copy g1 in
  Graph.remove_edge g2 2 3;
  Graph.add_edge g2 0 5;
  let m = replay (Recluster.Lowest_id 2) [ g1; g2 ] in
  check "some membership change" true
    (m.Membership.evictions + m.Membership.additions > 0)

let test_algorithm_names () =
  check "maxmin name" true (Recluster.algorithm_name (Recluster.Maxmin 2) = "maxmin(d=2)");
  check "lowest name" true
    (Recluster.algorithm_name (Recluster.Lowest_id 3) = "lowest-id(k=3)")

let prop_partition =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"both baselines partition random graphs" ~count:30
       QCheck.(pair (int_range 2 20) (int_range 1 3))
       (fun (n, d) ->
         let rng = Dgs_util.Rng.create (n * 31 + d) in
         let g = Gen.erdos_renyi rng ~n ~p:0.2 in
         let m = Maxmin.run ~d g in
         let l = Lowest_id.run ~k:d g in
         covers_all g m.Maxmin.clusters
         && disjoint m.Maxmin.clusters
         && covers_all g l.Lowest_id.clusters
         && disjoint l.Lowest_id.clusters
         && radius_ok g d l.Lowest_id.clusters))

let suite =
  [
    ("maxmin partitions", `Quick, test_maxmin_partition);
    ("maxmin heads", `Quick, test_maxmin_heads_self);
    ("maxmin on a clique", `Quick, test_maxmin_complete);
    ("maxmin isolated node", `Quick, test_maxmin_singleton);
    ("maxmin views", `Quick, test_maxmin_views);
    ("maxmin validation", `Quick, test_maxmin_validation);
    ("maxmin hand-worked example", `Quick, test_maxmin_hand_example);
    ("lowest-id partitions with radius", `Quick, test_lowest_id_partition);
    ("lowest-id greedy order", `Quick, test_lowest_id_greedy);
    ("lowest-id radius effect", `Quick, test_lowest_id_radius_varies);
    ("recluster views", `Quick, test_cluster_views);
    ("replay static trace", `Quick, test_replay_static_no_churn);
    ("replay detects churn", `Quick, test_replay_detects_churn);
    ("algorithm names", `Quick, test_algorithm_names);
    prop_partition;
  ]
