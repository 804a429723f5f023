module Geom = Dgs_util.Geom
module Rng = Dgs_util.Rng

type spec =
  | Static of Geom.point array
  | Waypoint of {
      xmax : float;
      ymax : float;
      vmin : float;
      vmax : float;
      pause : float;
    }
  | Walk of { xmax : float; ymax : float; speed : float; turn_sigma : float }
  | Highway of {
      lanes : int;
      lane_gap : float;
      length : float;
      vmin : float;
      vmax : float;
      bidirectional : bool;
    }
  | Manhattan of { blocks_x : int; blocks_y : int; block : float; speed : float }

type t =
  | T_static of Geom.point array
  | T_waypoint of Waypoint.t
  | T_walk of Walk.t
  | T_highway of Highway.t
  | T_manhattan of Manhattan.t

let create rng ~n = function
  | Static p ->
      if Array.length p <> n then invalid_arg "Mobility.create: Static size mismatch";
      T_static p
  | Waypoint { xmax; ymax; vmin; vmax; pause } ->
      T_waypoint (Waypoint.create rng ~n ~xmax ~ymax ~vmin ~vmax ~pause)
  | Walk { xmax; ymax; speed; turn_sigma } ->
      T_walk (Walk.create rng ~n ~xmax ~ymax ~speed ~turn_sigma)
  | Highway { lanes; lane_gap; length; vmin; vmax; bidirectional } ->
      T_highway (Highway.create rng ~n ~lanes ~lane_gap ~length ~vmin ~vmax ~bidirectional ())
  | Manhattan { blocks_x; blocks_y; block; speed } ->
      T_manhattan (Manhattan.create rng ~n ~blocks_x ~blocks_y ~block ~speed)

let positions = function
  | T_static p -> p
  | T_waypoint m -> Waypoint.positions m
  | T_walk m -> Walk.positions m
  | T_highway m -> Highway.positions m
  | T_manhattan m -> Manhattan.positions m

let step t ~dt =
  match t with
  | T_static _ -> ()
  | T_waypoint m -> Waypoint.step m ~dt
  | T_walk m -> Walk.step m ~dt
  | T_highway m -> Highway.step m ~dt
  | T_manhattan m -> Manhattan.step m ~dt

let graph t ~range = Dgs_graph.Gen.of_positions (positions t) ~range

let spec_name = function
  | Static _ -> "static"
  | Waypoint _ -> "waypoint"
  | Walk _ -> "walk"
  | Highway _ -> "highway"
  | Manhattan _ -> "manhattan"

(* Driving a mobility model as schedule steps over a live, mutable graph:
   the fuzzer's executor (and any other event-driven runner that owns its
   topology) installs a driver over the node ids it wants animated, then
   alternates [step] and [apply].  The driver owns the id -> position-slot
   assignment, so ids need not be dense; ids that later leave the graph
   are simply skipped by [apply], and nodes the driver does not track keep
   whatever edges they have. *)
module Driver = struct
  type nonrec t = { model : t; ids : int array; range : float }

  let create rng ~ids ~spec ~range =
    if range <= 0.0 then invalid_arg "Mobility.Driver.create: range <= 0";
    let ids = Array.of_list (List.sort_uniq compare ids) in
    { model = create rng ~n:(Array.length ids) spec; ids; range }

  let ids t = Array.to_list t.ids
  let positions t = positions t.model
  let step t ~dt = step t.model ~dt

  let apply t graph =
    let module Graph = Dgs_graph.Graph in
    let pos = positions t in
    let r2 = t.range *. t.range in
    let changed = ref false in
    let n = Array.length t.ids in
    for i = 0 to n - 1 do
      let u = t.ids.(i) in
      if Graph.mem_node graph u then
        for j = i + 1 to n - 1 do
          let v = t.ids.(j) in
          if Graph.mem_node graph v then begin
            let within = Geom.dist2 pos.(i) pos.(j) <= r2 in
            let have = Graph.mem_edge graph u v in
            if within && not have then begin
              Graph.add_edge graph u v;
              changed := true
            end
            else if (not within) && have then begin
              Graph.remove_edge graph u v;
              changed := true
            end
          end
        done
    done;
    !changed
end
