module Graph = Dgs_graph.Graph
open Dgs_core

type t = { graph : Graph.t; views : Node_id.Set.t Node_id.Map.t }

let make ~graph ~views = { graph; views }

let view t v =
  match Node_id.Map.find_opt v t.views with
  | Some s -> s
  | None -> Node_id.Set.singleton v

let nodes t = Graph.nodes t.graph

let omega t v =
  let vw = view t v in
  let agreed =
    Node_id.Set.mem v vw
    && Node_id.Set.for_all (fun u -> Node_id.Set.equal (view t u) vw) vw
  in
  if agreed then vw else Node_id.Set.singleton v

let groups t =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun v ->
      let g = omega t v in
      let key = Node_id.Set.elements g in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.replace seen key ();
        Some g
      end)
    (nodes t)
  |> List.sort (fun a b -> compare (Node_id.Set.min_elt a) (Node_id.Set.min_elt b))
