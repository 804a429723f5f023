module Graph = Dgs_graph.Graph
module Paths = Dgs_graph.Paths
open Dgs_core

type result = {
  head : Node_id.t Node_id.Map.t;
  clusters : Node_id.Set.t Node_id.Map.t;
}

let run ~k g =
  if k < 1 then invalid_arg "Lowest_id.run: k must be >= 1";
  let assigned = Node_id.Tbl.create 64 in
  let head = ref Node_id.Map.empty in
  let clusters = ref Node_id.Map.empty in
  List.iter
    (fun v ->
      if not (Node_id.Tbl.mem assigned v) then begin
        (* v is the smallest unassigned id: it heads a new cluster. *)
        let dist = Paths.bfs g v in
        let members =
          Node_id.Tbl.fold
            (fun u d acc ->
              if d <= k && not (Node_id.Tbl.mem assigned u) then Node_id.Set.add u acc
              else acc)
            dist Node_id.Set.empty
        in
        Node_id.Set.iter
          (fun u ->
            Node_id.Tbl.replace assigned u ();
            head := Node_id.Map.add u v !head)
          members;
        clusters := Node_id.Map.add v members !clusters
      end)
    (Graph.nodes g);
  { head = !head; clusters = !clusters }

let views r = Node_id.Map.map (fun h -> Node_id.Map.find h r.clusters) r.head
