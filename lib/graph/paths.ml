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

let dist_within g set u v =
  if (not (Graph.Int_set.mem u set)) || not (Graph.Int_set.mem v set) then infinity
  else dist (Graph.induced g set) u v

let eccentricity g v =
  let d = bfs g v in
  Tbl.fold (fun _ k acc -> max k acc) d 0

let component_of g src =
  let d = bfs g src in
  Tbl.fold (fun v _ acc -> Graph.Int_set.add v acc) d Graph.Int_set.empty

let components g =
  let seen = Tbl.create 64 in
  let comps =
    Graph.fold_nodes g ~init:[] ~f:(fun acc v ->
        if Tbl.mem seen v then acc
        else
          let c = component_of g v in
          Graph.Int_set.iter (fun u -> Tbl.replace seen u ()) c;
          c :: acc)
  in
  List.sort (fun a b -> compare (Graph.Int_set.min_elt a) (Graph.Int_set.min_elt b)) comps

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

let shortest_path g src dst =
  if not (Graph.mem_node g src && Graph.mem_node g dst) then None
  else
    let parent = Tbl.create 64 in
    let seen = Tbl.create 64 in
    Tbl.replace seen src ();
    let q = Queue.create () in
    Queue.add src q;
    let found = ref (src = dst) in
    while (not !found) && not (Queue.is_empty q) do
      let v = Queue.pop q in
      Graph.iter_neighbors g v (fun u ->
          if not (Tbl.mem seen u) then (
            Tbl.replace seen u ();
            Tbl.replace parent u v;
            if u = dst then found := true;
            Queue.add u q))
    done;
    if not !found then None
    else
      let rec build v acc =
        if v = src then v :: acc else build (Tbl.find parent v) (v :: acc)
      in
      Some (build dst [])
