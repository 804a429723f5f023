(* Hash grid over square cells of side [cell].  A cell is addressed by
   (floor (x/cell), floor (y/cell)); only occupied cells exist in the table,
   so memory is O(points), independent of the world's extent. *)

type bucket = int list ref

type t = {
  cell : float;
  cells : (int * int, bucket) Hashtbl.t;
  points : (int, Geom.point) Hashtbl.t;
}

let create ?(expected = 64) ~cell () =
  if not (Float.is_finite cell && cell > 0.0) then
    invalid_arg "Spatial_grid.create: cell must be finite and positive";
  { cell; cells = Hashtbl.create expected; points = Hashtbl.create expected }

(* Quotients are clamped before flooring so extreme coordinate/cell ratios
   cannot overflow int conversion.  The clamp is monotone and 1-Lipschitz,
   so two points within one cell side still land in adjacent cells and
   query coverage is preserved; far-apart points sharing a clamped cell
   merely become candidates that the distance test rejects. *)
let quot_limit = 1e15

let coord t v =
  let q = v /. t.cell in
  let q = Float.min quot_limit (Float.max (-.quot_limit) q) in
  int_of_float (Float.floor q)

let cell_of t (p : Geom.point) = (coord t p.x, coord t p.y)
let cell_coords = cell_of

let insert t id p =
  if Hashtbl.mem t.points id then
    invalid_arg "Spatial_grid.insert: id already present";
  Hashtbl.replace t.points id p;
  let key = cell_of t p in
  match Hashtbl.find_opt t.cells key with
  | Some b -> b := id :: !b
  | None -> Hashtbl.add t.cells key (ref [ id ])

(* Two points at most one cell side apart lie in the same or adjacent
   cells, so the 3x3 block around [p] holds every candidate.  Same
   inclusive test and float expression as the naive all-pairs scan in
   Gen.of_positions, so decisions agree bit for bit. *)
let iter_within t (p : Geom.point) f =
  let r2 = t.cell *. t.cell in
  let cx, cy = cell_of t p in
  for dx = -1 to 1 do
    for dy = -1 to 1 do
      match Hashtbl.find_opt t.cells (cx + dx, cy + dy) with
      | None -> ()
      | Some b ->
          List.iter
            (fun id ->
              let q = Hashtbl.find t.points id in
              if Geom.dist2 p q <= r2 then f id q)
            !b
    done
  done
