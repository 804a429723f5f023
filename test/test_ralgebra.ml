(* Unit and property tests for the r-operator algebra (paper Section 4.2's
   substrate: Ducourthial-Tixeuil path algebra). *)

module Graph = Dgs_graph.Graph
module Gen = Dgs_graph.Gen
module Paths = Dgs_graph.Paths
module Rng = Dgs_util.Rng
module Model = Antlist_model
module Mark = Dgs_core.Mark
module Arbitrary = Dgs_check.Arbitrary

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- algebraic laws --- *)

module Dist_laws = Roperator.Laws (Instances.Dist)

let test_dist_laws () =
  let samples = [ 0; 1; 2; 7; Instances.Dist.infinity ] in
  List.iter
    (fun a ->
      check "idempotent" true (Dist_laws.idempotent a);
      check "r inflationary" true
        (a >= Instances.Dist.infinity || Dist_laws.r_inflationary a);
      List.iter
        (fun b ->
          check "commutative" true (Dist_laws.commutative a b);
          check "endomorphism" true (Dist_laws.endomorphism a b);
          List.iter
            (fun c -> check "associative" true (Dist_laws.associative a b c))
            samples)
        samples)
    samples

module Min_laws = Roperator.Laws (Instances.Min_id)

let test_min_id_not_strict () =
  (* min with identity transform is a semigroup but NOT strictly
     idempotent: r is not inflationary — the documented weakness that
     makes raw flooding unable to flush ghost minima. *)
  check "idempotent" true (Min_laws.idempotent 4);
  check "not inflationary" false (Min_laws.r_inflationary 4)

let test_induced_order () =
  check "3 ≤ 5 (min order)" true (Dist_laws.leq 3 5);
  check "5 ≰ 3" false (Dist_laws.leq 5 3)

(* --- distances task --- *)

let test_distances_line () =
  let g = Gen.line 6 in
  let values, steps = Instances.distances ~sources:(Graph.Int_set.singleton 0) g in
  List.iter (fun (v, d) -> check_int (Printf.sprintf "d(%d)" v) v d) values;
  check "steps about diameter" true (steps <= 7)

let test_distances_multi_source () =
  let g = Gen.line 5 in
  let values, _ =
    Instances.distances ~sources:(Graph.Int_set.of_list [ 0; 4 ]) g
  in
  check_int "middle" 2 (List.assoc 2 values);
  check_int "near right source" 1 (List.assoc 3 values)

let test_distances_unreachable () =
  let g = Graph.of_edges ~nodes:[ 9 ] [ (0, 1) ] in
  let values, _ = Instances.distances ~sources:(Graph.Int_set.singleton 0) g in
  check "isolated is infinite" true (List.assoc 9 values >= Instances.Dist.infinity)

let prop_distances_match_bfs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"r-operator distances = BFS distances" ~count:30
       QCheck.(int_range 2 25)
       (fun n ->
         let rng = Rng.create (n * 7) in
         let g = Gen.erdos_renyi rng ~n ~p:0.25 in
         let values, _ = Instances.distances ~sources:(Graph.Int_set.singleton 0) g in
         List.for_all
           (fun (v, d) ->
             let d' = Paths.dist g 0 v in
             if d' >= Paths.infinity then d >= Instances.Dist.infinity else d = d')
           values))

(* --- leader election task --- *)

let test_leaders_components () =
  let g = Graph.of_edges ~nodes:[ 9 ] [ (3, 5); (5, 7); (2, 4) ] in
  let values, _ = Instances.leaders g in
  check_int "component of 7" 3 (List.assoc 7 values);
  check_int "component of 4" 2 (List.assoc 4 values);
  check_int "isolated" 9 (List.assoc 9 values)

let test_leaders_ghost_minimum_sticks () =
  (* Self-stabilization limit of plain flooding: a corrupted register
     holding a ghost minimum is never flushed because min/identity is not
     strictly idempotent. *)
  let g = Gen.line 3 in
  let module It = Roperator.Make (Instances.Min_id) in
  let t = It.create_with ~own:(fun v -> v) ~init:(fun v -> if v = 1 then -42 else v) g in
  ignore (It.run_to_fixpoint t);
  check "ghost survives" true (It.value t 2 = -42)

let test_dist_ghost_flushed () =
  (* With the strictly idempotent distance operator the same corruption is
     flushed: self-stabilizing. *)
  let g = Gen.line 3 in
  let module It = Roperator.Make (Instances.Dist) in
  let t =
    It.create_with
      ~own:(fun v -> if v = 0 then 0 else Instances.Dist.infinity)
      ~init:(fun v -> if v = 1 then -7 else Instances.Dist.infinity)
      g
  in
  ignore (It.run_to_fixpoint t);
  check_int "corruption flushed, exact distance" 2 (It.value t 2)

(* --- max-id flooding --- *)

let test_max_leaders () =
  let g = Graph.of_edges ~nodes:[ 0 ] [ (3, 5); (5, 7); (2, 4) ] in
  let values, _ = Instances.max_leaders g in
  check_int "component of 3" 7 (List.assoc 3 values);
  check_int "component of 2" 4 (List.assoc 2 values);
  check_int "isolated" 0 (List.assoc 0 values)

(* --- ancestor lists: the model's ⊕ and r as an instance --- *)

(* GRP's [ant l1 l2 = l1 ⊕ r l2] over lists of levels, as [Antlist_model]
   defines it (the definition [Antlist]'s fold is checked against):
   [combine = Model.merge], [transform = Model.shift] truncated at
   [bound] levels (Dmax+1 in the protocol). *)
module Ancestors (B : sig
  val bound : int
end) =
struct
  type t = Model.t

  let equal = ( = )
  let combine = Model.merge
  let transform l = Model.truncate (Model.shift l) B.bound
  let pp = Model.pp
end

module Ant_laws = Roperator.Laws (Ancestors (struct
  let bound = max_int
end))

(* Unmarked, gap-free lists with distinct ids, from one seed. *)
let clear_list seed =
  Model.restrict_clear (Model.of_antlist (Arbitrary.well_formed_antlist (Rng.create seed)))

let prop_ancestor_laws =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ancestor ⊕ commutative, idempotent; r inflationary" ~count:300
       QCheck.(int_range 1 1_000_000)
       (fun seed ->
         let a = clear_list seed and b = clear_list (seed + 1_000_003) in
         Ant_laws.commutative a b && Ant_laws.idempotent a
         && (a = [] || Ant_laws.r_inflationary a)))

(* Where GRP's lists depart from the algebra: a level emptied by the
   deduplication truncates the merge (DESIGN.md Section 5).  That costs
   associativity, so [compute] folds msgSet in one fixed order (by
   sender id); and [r a ⊕ r b] meets an empty level 0 and truncates to
   nothing, so [r] is an endomorphism only in the [ant] form the
   iteration uses, [x ⊕ r y] with [x] non-empty. *)
let test_ancestor_gap_truncation () =
  let l = Model.of_raw in
  let a = l [ [ (1, Mark.Clear) ]; [ (2, Mark.Clear) ]; [ (6, Mark.Clear) ] ] in
  let b = l [ [ (2, Mark.Clear) ] ] in
  let c = l [ [ (3, Mark.Clear) ]; [ (7, Mark.Clear) ] ] in
  check "not associative across a gap" false (Ant_laws.associative a b c);
  Alcotest.(check string) "(a ⊕ b) ⊕ c" "({1,2,3},{7})"
    (Model.to_string (Model.merge (Model.merge a b) c));
  check "r a ⊕ r b is empty" true (Model.merge (Model.shift a) (Model.shift b) = []);
  check "not an endomorphism of ⊕" false (Ant_laws.endomorphism a b)

(* Every node's levels of ancestors under [bound] (default: unbounded),
   iterated to the silent fixpoint by [Roperator.Make]. *)
let ancestor_lists ?(bound = max_int) g =
  let module It = Roperator.Make (Ancestors (struct
    let bound = bound
  end)) in
  let t = It.create ~own:Model.singleton g in
  check "silent" true (It.run_to_fixpoint t <> None);
  List.map (fun v -> (v, It.value t v)) (Graph.nodes g)

(* Level [i] of [v]'s list is exactly the nodes at distance [i] from [v],
   for every level the list has; unbounded lists reach every node. *)
let bfs_layers g ~bounded (v, lst) =
  List.for_all
    (fun i ->
      Graph.Int_set.equal
        (Graph.Int_set.of_list (List.map fst (Model.nth_level lst i)))
        (Graph.Int_set.of_list (List.filter (fun u -> Paths.dist g v u = i) (Graph.nodes g))))
    (List.init (List.length lst) Fun.id)
  && (bounded
     || List.for_all
          (fun u -> Paths.dist g v u >= Paths.infinity || Model.find lst u <> None)
          (Graph.nodes g))

let test_ancestor_lists_are_bfs_layers () =
  let g = Gen.ring 7 in
  List.iter
    (fun (v, lst) ->
      check (Printf.sprintf "layers of %d" v) true (bfs_layers g ~bounded:false (v, lst));
      check_int (Printf.sprintf "levels of %d" v) 4 (List.length lst))
    (ancestor_lists g)

let test_ancestor_lists_truncated () =
  let g = Gen.line 8 in
  List.iter
    (fun (v, lst) ->
      check "bounded by dmax+1" true (List.length lst <= 3);
      check (Printf.sprintf "layers of %d" v) true (bfs_layers g ~bounded:true (v, lst)))
    (ancestor_lists ~bound:3 g)

let prop_ancestor_layers =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ancestor levels = BFS layers on random graphs" ~count:20
       QCheck.(int_range 2 15)
       (fun n ->
         let rng = Rng.create (n * 13) in
         let g = Gen.erdos_renyi rng ~n ~p:0.3 in
         List.for_all (bfs_layers g ~bounded:false) (ancestor_lists g)))

let test_fixpoint_silent () =
  (* Once silent, further steps change nothing. *)
  let g = Gen.grid 3 3 in
  let module It = Roperator.Make (Instances.Dist) in
  let t =
    It.create ~own:(fun v -> if v = 4 then 0 else Instances.Dist.infinity) g
  in
  ignore (It.run_to_fixpoint t);
  check "still silent" false (It.step t)

let suite =
  [
    ("distance operator laws", `Quick, test_dist_laws);
    ("min-id is not strictly idempotent", `Quick, test_min_id_not_strict);
    ("induced order", `Quick, test_induced_order);
    ("distances on a line", `Quick, test_distances_line);
    ("multi-source distances", `Quick, test_distances_multi_source);
    ("unreachable distance", `Quick, test_distances_unreachable);
    prop_distances_match_bfs;
    ("leaders per component", `Quick, test_leaders_components);
    ("ghost minimum sticks (non-strict)", `Quick, test_leaders_ghost_minimum_sticks);
    ("ghost distance flushed (strict)", `Quick, test_dist_ghost_flushed);
    ("max-id flooding", `Quick, test_max_leaders);
    prop_ancestor_laws;
    ("ancestor gap truncation", `Quick, test_ancestor_gap_truncation);
    ("ancestor lists = BFS layers", `Quick, test_ancestor_lists_are_bfs_layers);
    ("ancestor lists truncated", `Quick, test_ancestor_lists_truncated);
    prop_ancestor_layers;
    ("fixpoint is silent", `Quick, test_fixpoint_silent);
  ]
