module Table = Dgs_metrics.Table
module Graph = Dgs_graph.Graph
module Paths = Dgs_graph.Paths
module Mobility = Dgs_mobility.Mobility
module Recluster = Dgs_baselines.Recluster
module Stats = Dgs_util.Stats
module Pool = Dgs_parallel.Pool
open Dgs_core

(* Replay a per-round topology trace through a reclustering baseline with
   the given period, measuring views per ROUND (frozen between ticks) so
   the accounting is identical to GRP's.  "Unjustified eviction": a member
   dropped from a node's cluster view while still within [dmax] hops. *)
let baseline_round_metrics algo ~period ~dmax snapshots =
  let lifetimes = ref [] in
  let view_age : (Node_id.t, Node_id.Set.t * int) Hashtbl.t = Hashtbl.create 64 in
  let evictions = ref 0 and unjustified = ref 0 in
  let node_rounds = ref 0 in
  let member_pairs = ref 0 and stale_pairs = ref 0 in
  let current = ref None in
  List.iteri
    (fun step g ->
      (if step mod period = 0 then
         let views = Recluster.cluster algo g in
         (match !current with
         | None -> ()
         | Some old_views ->
             Node_id.Map.iter
               (fun v w1 ->
                 match Node_id.Map.find_opt v old_views with
                 | None -> ()
                 | Some w0 ->
                     Node_id.Set.iter
                       (fun u ->
                         if (not (Node_id.Set.mem u w1)) && Graph.mem_node g u then begin
                           incr evictions;
                           if Paths.dist g v u <= dmax then incr unjustified
                         end)
                       w0)
               views);
         current := Some views);
      match !current with
      | None -> ()
      | Some views ->
          Node_id.Map.iter
            (fun v view ->
              Node_id.Set.iter
                (fun u ->
                  if u <> v then begin
                    incr member_pairs;
                    if
                      (not (Graph.mem_node g u))
                      || Paths.dist g v u > dmax
                    then incr stale_pairs
                  end)
                view;
              incr node_rounds;
              match Hashtbl.find_opt view_age v with
              | Some (prev, age) when Node_id.Set.equal prev view ->
                  Hashtbl.replace view_age v (prev, age + 1)
              | Some (_, age) ->
                  lifetimes := float_of_int age :: !lifetimes;
                  Hashtbl.replace view_age v (view, 1)
              | None -> Hashtbl.replace view_age v (view, 1))
            views)
    snapshots;
  Hashtbl.iter (fun _ (_, age) -> lifetimes := float_of_int age :: !lifetimes) view_age;
  let stale =
    if !member_pairs = 0 then 0.0
    else float_of_int !stale_pairs /. float_of_int !member_pairs
  in
  (Stats.summarize !lifetimes, !evictions, !unjustified, !node_rounds, stale)

let run ?(quick = false) ?(jobs = 1) () =
  let rounds = if quick then 100 else 500 in
  let n = if quick then 20 else 40 in
  let dmax = 4 in
  let config = Config.make ~dmax () in
  let period = 5 in
  let table =
    Table.create ~title:"E6: group stability, GRP vs reclustering baselines"
      ~columns:
        [
          "mobility";
          "protocol";
          "view lifetime (rounds)";
          "evictions /node/100r";
          "unjustified /node/100r";
          "stale members %";
        ]
  in
  let specs =
    [
      ( "highway",
        Mobility.Highway
          {
            lanes = 3;
            lane_gap = 0.3;
            (* spacing ~1.5x the radio range: vehicles clump into natural
               platoons instead of one continuous chain *)
            length = 1.5 *. float_of_int n;
            vmin = 0.02;
            vmax = 0.08;
            bidirectional = true;
          } );
      ( "waypoint",
        Mobility.Waypoint
          { xmax = 12.0; ymax = 12.0; vmin = 0.02; vmax = 0.08; pause = 4.0 } );
    ]
  in
  let rows =
    Pool.mapi_list ~jobs specs (fun (name, spec) ->
        let seed = 77 in
        let grp =
          Harness.run_mobility ~warmup:150 ~config ~seed ~spec ~n ~rounds ()
        in
        let grp_rate x = 100.0 *. float_of_int x /. float_of_int (n * rounds) in
        let grp_row =
          [
            name;
            "GRP";
            Table.cell_summary grp.Harness.group_lifetime;
            Table.cell_float (grp_rate grp.Harness.evictions_total);
            Table.cell_float (grp_rate grp.Harness.unjustified_evictions);
            Table.cell_float (100.0 *. grp.Harness.stale_member_fraction);
          ]
        in
        let snapshots =
          Harness.graph_snapshots ~seed ~spec ~n ~every:1 ~rounds
        in
        let baseline_rows =
          List.map
            (fun algo ->
              let lifetime, evictions, unjustified, node_rounds, stale =
                baseline_round_metrics algo ~period ~dmax snapshots
              in
              let rate x =
                100.0 *. float_of_int x /. float_of_int (max 1 node_rounds)
              in
              [
                name;
                Recluster.algorithm_name algo;
                Table.cell_summary lifetime;
                Table.cell_float (rate evictions);
                Table.cell_float (rate unjustified);
                Table.cell_float (100.0 *. stale);
              ])
            [
              Recluster.Maxmin (max 1 (dmax / 2));
              Recluster.Lowest_id (max 1 (dmax / 2));
            ]
        in
        grp_row :: baseline_rows)
  in
  List.iter (List.iter (Table.add_row table)) rows;
  [ table ]
