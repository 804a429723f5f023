module Tbl = Dgs_util.Int_tbl

let infinity = max_int / 4

let bfs g src =
  let dist = Tbl.create 64 in
  if Graph.mem_node g src then (
    Tbl.replace dist src 0;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      let dv = Tbl.find dist v in
      Graph.iter_neighbors g v (fun u ->
          if not (Tbl.mem dist u) then (
            Tbl.replace dist u (dv + 1);
            Queue.add u q))
    done);
  dist

let dist g u v =
  if u = v && Graph.mem_node g u then 0
  else
    let d = bfs g u in
    match Tbl.find_opt d v with None -> infinity | Some k -> k

let eccentricity g v =
  let d = bfs g v in
  Tbl.fold (fun _ k acc -> max k acc) d 0

let component_of g src =
  let d = bfs g src in
  Tbl.fold (fun v _ acc -> Graph.Int_set.add v acc) d Graph.Int_set.empty

let is_connected g =
  match Graph.nodes g with
  | [] -> true
  | v :: _ -> Graph.Int_set.cardinal (component_of g v) = Graph.node_count g

let diameter g =
  match Graph.nodes g with
  | [] | [ _ ] -> 0
  | ns ->
      if not (is_connected g) then infinity
      else List.fold_left (fun acc v -> max acc (eccentricity g v)) 0 ns

let diameter_of_set g set = diameter (Graph.induced g set)
