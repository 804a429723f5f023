module Int_set = Dgs_util.Int_set
module Tbl = Dgs_util.Int_tbl

type t = Int_set.t Tbl.t

let create () : t = Tbl.create 64
let copy = Tbl.copy
let mem_node t v = Tbl.mem t v
let add_node t v = if not (mem_node t v) then Tbl.replace t v Int_set.empty
let neighbors t v = match Tbl.find_opt t v with None -> Int_set.empty | Some s -> s

let remove_node t v =
  if mem_node t v then (
    Int_set.iter (fun u -> Tbl.replace t u (Int_set.remove v (neighbors t u))) (neighbors t v);
    Tbl.remove t v)

let add_edge t u v =
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  add_node t u;
  add_node t v;
  Tbl.replace t u (Int_set.add v (neighbors t u));
  Tbl.replace t v (Int_set.add u (neighbors t v))

let remove_edge t u v =
  if mem_node t u then Tbl.replace t u (Int_set.remove v (neighbors t u));
  if mem_node t v then Tbl.replace t v (Int_set.remove u (neighbors t v))

let mem_edge t u v = Int_set.mem v (neighbors t u)
let nodes t = Tbl.fold (fun v _ acc -> v :: acc) t [] |> List.sort compare
let node_count t = Tbl.length t

let edges t =
  Tbl.fold
    (fun u s acc -> Int_set.fold (fun v acc -> if u < v then (u, v) :: acc else acc) s acc)
    t []
  |> List.sort compare

let edge_count t = List.length (edges t)

let of_edges ?(nodes = []) es =
  let t = create () in
  List.iter (add_node t) nodes;
  List.iter (fun (u, v) -> add_edge t u v) es;
  t

let iter_nodes t f = List.iter f (nodes t)
let iter_neighbors t v f = Int_set.iter f (neighbors t v)
let fold_nodes t ~init ~f = List.fold_left f init (nodes t)

let induced t set =
  let sub = create () in
  Int_set.iter
    (fun v ->
      if mem_node t v then (
        add_node sub v;
        Int_set.iter (fun u -> if Int_set.mem u set then add_edge sub v u) (neighbors t v)))
    set;
  sub

let equal a b = nodes a = nodes b && edges a = edges b
