module Table = Dgs_metrics.Table
module Mobility = Dgs_mobility.Mobility
module Recluster = Dgs_baselines.Recluster
module Configuration = Dgs_spec.Configuration
module Membership = Dgs_spec.Membership
module Pool = Dgs_parallel.Pool
open Dgs_core

let replay ~dmax ~start rounds =
  let ledger = Membership.create ~dmax start in
  List.iter (fun c -> ignore (Membership.observe ledger c)) rounds;
  Membership.summary ledger

let reclustered algo ~period snapshots =
  let views = ref Node_id.Map.empty in
  List.mapi
    (fun step graph ->
      if step mod period = 0 then views := Recluster.cluster algo graph;
      Configuration.make ~graph ~views:!views)
    snapshots

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
        let row protocol (m : Membership.summary) =
          let rate x = 100.0 *. float_of_int x /. float_of_int (max 1 m.node_rounds) in
          [
            name;
            protocol;
            Table.cell_summary m.lifetime;
            Table.cell_float (rate m.evictions);
            Table.cell_float (rate m.unjustified_evictions);
            Table.cell_float (100.0 *. m.stale_member_fraction);
          ]
        in
        let snapshots =
          Harness.graph_snapshots ~seed ~spec ~n ~every:1 ~rounds
        in
        let baseline_rows =
          List.map
            (fun algo ->
              let configs = reclustered algo ~period snapshots in
              (* The first clustering is a round of its own, from itself. *)
              row (Recluster.algorithm_name algo)
                (replay ~dmax ~start:(List.hd configs) configs))
            [
              Recluster.Maxmin (max 1 (dmax / 2));
              Recluster.Lowest_id (max 1 (dmax / 2));
            ]
        in
        row "GRP" grp.Harness.churn :: baseline_rows)
  in
  List.iter (List.iter (Table.add_row table)) rows;
  [ table ]
