module Graph = Dgs_graph.Graph

module Dist = struct
  type t = int

  let infinity = max_int / 4
  let equal = Int.equal
  let combine = min
  let transform x = if x >= infinity then infinity else x + 1
  let pp ppf x = if x >= infinity then Format.pp_print_string ppf "∞" else Format.pp_print_int ppf x
end

module Dist_iter = Roperator.Make (Dist)

let distances ~sources g =
  let own v = if Graph.Int_set.mem v sources then 0 else Dist.infinity in
  let t = Dist_iter.create ~own g in
  let steps = match Dist_iter.run_to_fixpoint t with Some s -> s | None -> -1 in
  (List.map (fun v -> (v, Dist_iter.value t v)) (Graph.nodes g), steps)

module Min_id = struct
  type t = int

  let equal = Int.equal
  let combine = min
  let transform x = x
  let pp = Format.pp_print_int
end

module Min_iter = Roperator.Make (Min_id)

let leaders g =
  let t = Min_iter.create ~own:(fun v -> v) g in
  let steps = match Min_iter.run_to_fixpoint t with Some s -> s | None -> -1 in
  (List.map (fun v -> (v, Min_iter.value t v)) (Graph.nodes g), steps)

module Max_id = struct
  type t = int

  let equal = Int.equal
  let combine = max
  let transform x = x
  let pp = Format.pp_print_int
end

module Max_iter = Roperator.Make (Max_id)

let max_leaders g =
  let t = Max_iter.create ~own:(fun v -> v) g in
  let steps = match Max_iter.run_to_fixpoint t with Some s -> s | None -> -1 in
  (List.map (fun v -> (v, Max_iter.value t v)) (Graph.nodes g), steps)
