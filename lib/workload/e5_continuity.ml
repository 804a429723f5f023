module Table = Dgs_metrics.Table
module Mobility = Dgs_mobility.Mobility
module Pool = Dgs_parallel.Pool
module Membership = Dgs_spec.Membership
open Dgs_core

let run ?(quick = false) ?(jobs = 1) () =
  let rounds = if quick then 80 else 400 in
  let n = if quick then 20 else 40 in
  let dmax = 3 in
  let config = Config.make ~dmax () in
  let table =
    Table.create
      ~title:"E5: continuity under mobility (evictions under \xCE\xA0T must be 0)"
      ~columns:
        [
          "mobility";
          "speed";
          "\xCE\xA0T-ok steps";
          "\xCE\xA0T-broken steps";
          "evict under \xCE\xA0T";
          "unjustified";
          "evict total";
          "mean groups";
        ]
  in
  let speeds = if quick then [ 0.0; 0.05 ] else [ 0.0; 0.02; 0.05; 0.1; 0.2 ] in
  let scenarios speed =
    [
      ( "highway",
        Mobility.Highway
          {
            lanes = 3;
            lane_gap = 0.3;
            (* spacing ~1.5x the radio range: vehicles clump into natural
               platoons instead of one continuous chain *)
            length = 1.5 *. float_of_int n;
            vmin = speed /. 2.0;
            vmax = (speed *. 1.5) +. 1e-9;
            bidirectional = true;
          } );
      ( "waypoint",
        Mobility.Waypoint
          {
            xmax = 12.0;
            ymax = 12.0;
            vmin = (speed /. 2.0) +. 1e-9;
            vmax = (speed *. 1.5) +. 2e-9;
            pause = 2.0;
          } );
    ]
  in
  let cases =
    List.concat_map
      (fun speed -> List.map (fun (name, spec) -> (speed, name, spec)) (scenarios speed))
      speeds
  in
  let rows =
    Pool.mapi_list ~jobs cases (fun (speed, name, spec) ->
        let r =
          Harness.run_mobility ~warmup:150 ~config
            ~seed:(int_of_float (speed *. 1000.0) + 3)
            ~spec ~n ~rounds ()
        in
        [
          name;
          Table.cell_float speed;
          Table.cell_int r.Harness.pt_preserving;
          Table.cell_int r.Harness.pt_violating;
          Table.cell_int r.Harness.evictions_under_pt;
          Table.cell_int r.Harness.churn.Membership.unjustified_evictions;
          Table.cell_int r.Harness.churn.Membership.evictions;
          Table.cell_float ~decimals:1 r.Harness.mean_groups;
        ])
  in
  List.iter (Table.add_row table) rows;
  [ table ]
