(* Spatial hash grid: unit tests, and the QCheck equivalence pinning the
   grid-backed Gen.of_positions to the naive all-pairs reference. *)

module Grid = Dgs_util.Spatial_grid
module Geom = Dgs_util.Geom
module Graph = Dgs_graph.Graph
module Gen = Dgs_graph.Gen

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- grid structure --- *)

let test_create_validates_cell () =
  List.iter
    (fun cell ->
      match Grid.create ~cell () with
      | (_ : Grid.t) -> Alcotest.failf "cell %f accepted" cell
      | exception Invalid_argument _ -> ())
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* A query's radius is the grid's cell side. *)
let ids_within g p =
  let ids = ref [] in
  Grid.iter_within g p (fun id _ -> ids := id :: !ids);
  List.sort compare !ids

let test_insert_query () =
  let g = Grid.create ~cell:1.0 () in
  Alcotest.(check (list int)) "empty" [] (ids_within g Geom.origin);
  Grid.insert g 7 (Geom.make 0.5 0.5);
  Grid.insert g 8 (Geom.make (-3.2) 4.1);
  Alcotest.(check (list int)) "near the origin" [ 7 ] (ids_within g Geom.origin);
  Alcotest.(check (list int)) "each at its position" [ 8 ]
    (ids_within g (Geom.make (-3.2) 4.1));
  Alcotest.check_raises "duplicate insert"
    (Invalid_argument "Spatial_grid.insert: id already present")
    (fun () -> Grid.insert g 7 Geom.origin)

let test_query_inclusive_boundary () =
  let g = Grid.create ~cell:1.0 () in
  Grid.insert g 0 Geom.origin;
  Grid.insert g 1 (Geom.make 1.0 0.0);
  (* exactly one cell side away *)
  Grid.insert g 2 (Geom.make 1.0000001 0.0);
  Alcotest.(check (list int))
    "<= range, not <" [ 0; 1 ]
    (ids_within g Geom.origin)

let test_negative_coordinates () =
  let g = Grid.create ~cell:1.0 () in
  Grid.insert g 0 (Geom.make (-0.5) (-0.5));
  Grid.insert g 1 (Geom.make 0.4 0.4);
  (* the points straddle cell (-1,-1) / (0,0); floor (not truncate) keeps
     them in distinct cells yet both within one cell of each other *)
  Alcotest.(check (list int)) "across the origin" [ 0; 1 ]
    (ids_within g (Geom.make 0.0 0.0))

(* --- of_positions: grid vs naive reference --- *)

let graphs_agree positions ~range =
  Graph.equal (Gen.of_positions positions ~range) (Gen.of_positions_naive positions ~range)

let test_of_positions_edge_cases () =
  List.iter
    (fun (name, positions, range) ->
      check name true (graphs_agree positions ~range))
    [
      ("empty", [||], 1.0);
      ("single", [| Geom.origin |], 1.0);
      ("coincident pair, range 0", [| Geom.origin; Geom.origin |], 0.0);
      ("distinct pair, range 0", [| Geom.origin; Geom.make 1.0 0.0 |], 0.0);
      ( "all coincident",
        Array.make 7 (Geom.make 2.5 (-2.5)),
        1.0 );
      ( "exact boundary",
        [| Geom.origin; Geom.make 3.0 4.0 |],
        5.0 );
      ( "range larger than the box",
        [| Geom.origin; Geom.make 1.0 1.0; Geom.make 0.3 0.9 |],
        1000.0 );
      ( "negative range squares positive",
        [| Geom.origin; Geom.make 1.5 0.0 |],
        -2.0 );
    ]

(* Coordinates snapped to a coarse lattice force coincident points and
   boundary-exact distances; the box offset covers negative coordinates. *)
let gen_case =
  QCheck.Gen.(
    let* n = int_range 0 60 in
    let* box = oneofl [ 1.0; 6.0; 25.0 ] in
    let* steps = oneofl [ 7; 31 ] in
    let* offset = oneofl [ 0.0; -0.5 ] in
    let* range = oneofl [ 0.0; 0.3; 1.0; 2.5; 40.0 ] in
    let* cells = list_repeat n (pair (int_range 0 steps) (int_range 0 steps)) in
    let positions =
      List.map
        (fun (a, b) ->
          let f k = ((float_of_int k /. float_of_int steps) +. offset) *. box in
          Geom.make (f a) (f b))
        cells
    in
    return (Array.of_list positions, range))

let print_case (positions, range) =
  Format.asprintf "range %g, %d points: %a" range (Array.length positions)
    (Format.pp_print_list Geom.pp)
    (Array.to_list positions)

let prop_grid_equals_naive =
  QCheck.Test.make ~name:"of_positions (grid) = of_positions_naive, incl. range > box"
    ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun (positions, range) -> graphs_agree positions ~range)

let prop_grid_equals_naive_uniform =
  QCheck.Test.make ~name:"of_positions (grid) = of_positions_naive, uniform floats"
    ~count:200
    (QCheck.make ~print:print_case
       QCheck.Gen.(
         let* n = int_range 0 50 in
         let* range = float_range 0.0 3.0 in
         let* pts = list_repeat n (pair (float_range (-4.0) 8.0) (float_range (-4.0) 8.0)) in
         return (Array.of_list (List.map (fun (x, y) -> Geom.make x y) pts), range)))
    (fun (positions, range) -> graphs_agree positions ~range)

let suite =
  [
    ("create validates cell", `Quick, test_create_validates_cell);
    ("insert / query", `Quick, test_insert_query);
    ("query boundary is inclusive", `Quick, test_query_inclusive_boundary);
    ("negative coordinates", `Quick, test_negative_coordinates);
    ("of_positions edge cases", `Quick, test_of_positions_edge_cases);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_grid_equals_naive; prop_grid_equals_naive_uniform ]
