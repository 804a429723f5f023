module Rng = Dgs_util.Rng
module Geom = Dgs_util.Geom
module Spatial_grid = Dgs_util.Spatial_grid

let line n =
  let g = Graph.create () in
  for i = 0 to n - 1 do
    Graph.add_node g i
  done;
  for i = 0 to n - 2 do
    Graph.add_edge g i (i + 1)
  done;
  g

let ring n =
  if n < 3 then invalid_arg "Gen.ring: need n >= 3";
  let g = line n in
  Graph.add_edge g (n - 1) 0;
  g

let grid rows cols =
  let g = Graph.create () in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Graph.add_node g (id r c);
      if c > 0 then Graph.add_edge g (id r c) (id r (c - 1));
      if r > 0 then Graph.add_edge g (id r c) (id (r - 1) c)
    done
  done;
  g

let complete n =
  let g = Graph.create () in
  for i = 0 to n - 1 do
    Graph.add_node g i;
    for j = 0 to i - 1 do
      Graph.add_edge g i j
    done
  done;
  g

let star n =
  let g = Graph.create () in
  Graph.add_node g 0;
  for i = 1 to n - 1 do
    Graph.add_edge g 0 i
  done;
  g

let binary_tree n =
  let g = Graph.create () in
  for i = 0 to n - 1 do
    Graph.add_node g i;
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    if l < n then Graph.add_edge g i l;
    if r < n then Graph.add_edge g i r
  done;
  g

let erdos_renyi rng ~n ~p =
  let g = Graph.create () in
  for i = 0 to n - 1 do
    Graph.add_node g i;
    for j = 0 to i - 1 do
      if Rng.bernoulli rng p then Graph.add_edge g i j
    done
  done;
  g

let of_positions_naive positions ~range =
  let n = Array.length positions in
  let g = Graph.create () in
  let r2 = range *. range in
  for i = 0 to n - 1 do
    Graph.add_node g i;
    for j = 0 to i - 1 do
      if Geom.dist2 positions.(i) positions.(j) <= r2 then Graph.add_edge g i j
    done
  done;
  g

let of_positions positions ~range =
  let cell = Float.abs range in
  if not (Float.is_finite cell && cell > 0.0) then
    (* Degenerate radius: the grid has no usable cell size.  The naive scan
       still defines the semantics (range 0 links coincident points). *)
    of_positions_naive positions ~range
  else begin
    let n = Array.length positions in
    let g = Graph.create () in
    let grid = Spatial_grid.create ~expected:(max 64 n) ~cell () in
    (* Inserting point i only after querying it guarantees every reported
       candidate has a smaller id, mirroring the naive scan's j < i loop;
       the distance test itself lives in Spatial_grid.iter_within and is
       the same inclusive [dist2 <= cell²] expression, [cell² = range²]. *)
    for i = 0 to n - 1 do
      Graph.add_node g i;
      Spatial_grid.iter_within grid positions.(i) (fun j _ ->
          Graph.add_edge g i j);
      Spatial_grid.insert grid i positions.(i)
    done;
    g
  end

let random_geometric rng ~n ~xmax ~ymax ~range =
  let positions = Array.init n (fun _ -> Geom.make (Rng.float rng xmax) (Rng.float rng ymax)) in
  (of_positions positions ~range, positions)

let random_geometric_connected rng ~n ~xmax ~ymax ~range ~max_tries =
  let rec go tries =
    if tries = 0 then None
    else
      let g, pos = random_geometric rng ~n ~xmax ~ymax ~range in
      if Paths.is_connected g then Some (g, pos) else go (tries - 1)
  in
  go max_tries

let barbell size1 size2 =
  let g = Graph.create () in
  for i = 0 to size1 - 1 do
    Graph.add_node g i;
    for j = 0 to i - 1 do
      Graph.add_edge g i j
    done
  done;
  for i = size1 to size1 + size2 - 1 do
    Graph.add_node g i;
    for j = size1 to i - 1 do
      Graph.add_edge g i j
    done
  done;
  if size1 > 0 && size2 > 0 then Graph.add_edge g 0 size1;
  g

let caterpillar ~spine ~legs =
  let g = line spine in
  let next = ref spine in
  for s = 0 to spine - 1 do
    for _ = 1 to legs do
      Graph.add_edge g s !next;
      incr next
    done
  done;
  g

(* Cliques 0..groups-1; clique k holds nodes [k*group_size .. (k+1)*group_size-1].
   Consecutive cliques are joined by one edge between their first members. *)
let group_row ~groups ~group_size =
  let g = Graph.create () in
  for k = 0 to groups - 1 do
    let base = k * group_size in
    for i = base to base + group_size - 1 do
      Graph.add_node g i;
      for j = base to i - 1 do
        Graph.add_edge g i j
      done
    done
  done;
  g

let group_chain ~groups ~group_size =
  let g = group_row ~groups ~group_size in
  for k = 0 to groups - 2 do
    Graph.add_edge g (k * group_size) ((k + 1) * group_size)
  done;
  g

let group_loop ~groups ~group_size =
  if groups < 3 then invalid_arg "Gen.group_loop: need at least 3 groups";
  let g = group_chain ~groups ~group_size in
  Graph.add_edge g ((groups - 1) * group_size) 0;
  g
