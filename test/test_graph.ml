(* Unit tests for Dgs_graph: graphs, paths, generators. *)

module Graph = Dgs_graph.Graph
module Paths = Dgs_graph.Paths
module Gen = Dgs_graph.Gen
module Rng = Dgs_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- graph structure --- *)

let test_add_remove_nodes () =
  let g = Graph.create () in
  Graph.add_node g 1;
  Graph.add_node g 1;
  check_int "idempotent add" 1 (Graph.node_count g);
  Graph.remove_node g 1;
  check_int "removed" 0 (Graph.node_count g);
  Graph.remove_node g 1 (* no-op *)

let test_edges () =
  let g = Graph.create () in
  Graph.add_edge g 1 2;
  check "edge both ways" true (Graph.mem_edge g 1 2 && Graph.mem_edge g 2 1);
  check_int "auto nodes" 2 (Graph.node_count g);
  Graph.add_edge g 1 2;
  check_int "idempotent edge" 1 (Graph.edge_count g);
  Graph.remove_edge g 1 2;
  check "edge gone" false (Graph.mem_edge g 1 2);
  check_int "nodes stay" 2 (Graph.node_count g)

let test_self_loop_rejected () =
  let g = Graph.create () in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1)

let test_remove_node_cleans_edges () =
  let g = Gen.complete 4 in
  Graph.remove_node g 0;
  check_int "edges left" 3 (Graph.edge_count g);
  Graph.iter_nodes g (fun v -> check "no dangling" false (Graph.mem_edge g v 0))

let test_of_edges_and_listing () =
  let g = Graph.of_edges ~nodes:[ 9 ] [ (1, 2); (2, 3) ] in
  Alcotest.(check (list int)) "nodes sorted" [ 1; 2; 3; 9 ] (Graph.nodes g);
  Alcotest.(check (list (pair int int))) "edges canonical" [ (1, 2); (2, 3) ] (Graph.edges g)

let test_neighbors () =
  let g = Gen.star 5 in
  check_int "hub degree" 4 (Graph.Int_set.cardinal (Graph.neighbors g 0));
  check_int "leaf degree" 1 (Graph.Int_set.cardinal (Graph.neighbors g 3));
  check_int "absent node" 0 (Graph.Int_set.cardinal (Graph.neighbors g 42))

let test_induced () =
  let g = Gen.complete 5 in
  let sub = Graph.induced g (Graph.Int_set.of_list [ 0; 1; 2 ]) in
  check_int "induced nodes" 3 (Graph.node_count sub);
  check_int "induced edges" 3 (Graph.edge_count sub)

let test_copy_independent () =
  let g = Gen.line 3 in
  let c = Graph.copy g in
  Graph.remove_edge c 0 1;
  check "original intact" true (Graph.mem_edge g 0 1);
  check "copy changed" false (Graph.mem_edge c 0 1)

let test_equal () =
  check "equal graphs" true (Graph.equal (Gen.line 4) (Gen.line 4));
  check "different graphs" false (Graph.equal (Gen.line 4) (Gen.ring 4))

(* --- paths --- *)

let test_bfs_line () =
  let g = Gen.line 5 in
  let d = Paths.bfs g 0 in
  for i = 0 to 4 do
    check_int (Printf.sprintf "d(0,%d)" i) i (Dgs_util.Int_tbl.find d i)
  done

let test_dist () =
  let g = Gen.ring 6 in
  check_int "ring wrap" 2 (Paths.dist g 0 4);
  check_int "self" 0 (Paths.dist g 3 3);
  let g2 = Graph.of_edges ~nodes:[ 7 ] [ (0, 1) ] in
  check "disconnected = infinity" true (Paths.dist g2 0 7 = Paths.infinity)

let test_diameter () =
  check_int "line" 4 (Paths.diameter (Gen.line 5));
  check_int "ring" 3 (Paths.diameter (Gen.ring 6));
  check_int "complete" 1 (Paths.diameter (Gen.complete 5));
  check_int "star" 2 (Paths.diameter (Gen.star 6));
  check_int "singleton" 0 (Paths.diameter (Gen.line 1));
  check_int "empty" 0 (Paths.diameter (Graph.create ()));
  let disconnected = Graph.of_edges ~nodes:[ 5 ] [ (0, 1) ] in
  check "disconnected diameter" true (Paths.diameter disconnected = Paths.infinity)

let test_diameter_of_set () =
  let g = Gen.line 6 in
  check_int "prefix" 2 (Paths.diameter_of_set g (Graph.Int_set.of_list [ 0; 1; 2 ]));
  check "gap disconnects" true
    (Paths.diameter_of_set g (Graph.Int_set.of_list [ 0; 1; 3 ]) = Paths.infinity)

let test_connectivity_components () =
  check "line connected" true (Paths.is_connected (Gen.line 8));
  check "empty connected" true (Paths.is_connected (Graph.create ()));
  let g = Graph.of_edges [ (0, 1); (2, 3); (3, 4) ] in
  check "two parts" false (Paths.is_connected g)

let test_eccentricity () =
  let g = Gen.line 5 in
  check_int "end node" 4 (Paths.eccentricity g 0);
  check_int "center" 2 (Paths.eccentricity g 2)

(* --- generators --- *)

let test_gen_shapes () =
  check_int "line nodes" 7 (Graph.node_count (Gen.line 7));
  check_int "line edges" 6 (Graph.edge_count (Gen.line 7));
  check_int "ring edges" 7 (Graph.edge_count (Gen.ring 7));
  check_int "grid nodes" 12 (Graph.node_count (Gen.grid 3 4));
  check_int "grid edges" 17 (Graph.edge_count (Gen.grid 3 4));
  check_int "complete edges" 10 (Graph.edge_count (Gen.complete 5));
  check_int "star edges" 5 (Graph.edge_count (Gen.star 6));
  check_int "btree edges" 14 (Graph.edge_count (Gen.binary_tree 15))

let test_gen_ring_small () =
  Alcotest.check_raises "ring 2" (Invalid_argument "Gen.ring: need n >= 3") (fun () ->
      ignore (Gen.ring 2))

let test_gen_er () =
  let rng = Rng.create 5 in
  let g0 = Gen.erdos_renyi rng ~n:20 ~p:0.0 in
  check_int "p=0 no edges" 0 (Graph.edge_count g0);
  check_int "p=0 all nodes" 20 (Graph.node_count g0);
  let g1 = Gen.erdos_renyi rng ~n:20 ~p:1.0 in
  check_int "p=1 complete" 190 (Graph.edge_count g1);
  let g = Gen.erdos_renyi rng ~n:50 ~p:0.1 in
  let m = Graph.edge_count g in
  check "p=0.1 edge count plausible" true (m > 60 && m < 190)

let test_gen_geometric () =
  let rng = Rng.create 6 in
  let g, pos = Gen.random_geometric rng ~n:30 ~xmax:10.0 ~ymax:10.0 ~range:2.0 in
  check_int "node count" 30 (Graph.node_count g);
  (* Every edge respects the range; every in-range pair has an edge. *)
  Graph.iter_nodes g (fun u ->
      Graph.iter_nodes g (fun v ->
          if u < v then
            let close = Dgs_util.Geom.dist pos.(u) pos.(v) <= 2.0 in
            check "unit disk edge iff close" close (Graph.mem_edge g u v)))

let test_gen_geometric_connected () =
  let rng = Rng.create 7 in
  match
    Gen.random_geometric_connected rng ~n:25 ~xmax:6.0 ~ymax:6.0 ~range:2.0
      ~max_tries:100
  with
  | Some (g, _) -> check "connected" true (Paths.is_connected g)
  | None -> Alcotest.fail "should find a connected instance"

let test_gen_group_shapes () =
  let chain = Gen.group_chain ~groups:3 ~group_size:3 in
  check_int "chain nodes" 9 (Graph.node_count chain);
  check_int "chain edges" 11 (Graph.edge_count chain);
  let loop = Gen.group_loop ~groups:3 ~group_size:3 in
  check_int "loop edges" 12 (Graph.edge_count loop);
  Alcotest.check_raises "loop needs 3" (Invalid_argument "Gen.group_loop: need at least 3 groups")
    (fun () -> ignore (Gen.group_loop ~groups:2 ~group_size:3));
  let cat = Gen.caterpillar ~spine:4 ~legs:2 in
  check_int "caterpillar nodes" 12 (Graph.node_count cat);
  let bar = Gen.barbell 3 4 in
  check_int "barbell edges" (3 + 6 + 1) (Graph.edge_count bar)

let suite =
  [
    ("add/remove nodes", `Quick, test_add_remove_nodes);
    ("edges", `Quick, test_edges);
    ("self loop rejected", `Quick, test_self_loop_rejected);
    ("remove node cleans edges", `Quick, test_remove_node_cleans_edges);
    ("of_edges & listing", `Quick, test_of_edges_and_listing);
    ("neighbors", `Quick, test_neighbors);
    ("induced subgraph", `Quick, test_induced);
    ("copy independence", `Quick, test_copy_independent);
    ("equal", `Quick, test_equal);
    ("bfs on line", `Quick, test_bfs_line);
    ("dist", `Quick, test_dist);
    ("diameter", `Quick, test_diameter);
    ("diameter of set", `Quick, test_diameter_of_set);
    ("connectivity & components", `Quick, test_connectivity_components);
    ("eccentricity", `Quick, test_eccentricity);
    ("generator shapes", `Quick, test_gen_shapes);
    ("ring minimum size", `Quick, test_gen_ring_small);
    ("erdos-renyi", `Quick, test_gen_er);
    ("random geometric is unit disk", `Quick, test_gen_geometric);
    ("random geometric connected", `Quick, test_gen_geometric_connected);
    ("clique chain/loop/caterpillar/barbell", `Quick, test_gen_group_shapes);
  ]
