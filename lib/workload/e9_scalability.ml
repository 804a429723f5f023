module Table = Dgs_metrics.Table
module Stats = Dgs_util.Stats
module Pool = Dgs_parallel.Pool
open Dgs_core

let run ?(quick = false) ?(jobs = 1) () =
  let sizes = if quick then [ 25; 50 ] else [ 25; 50; 100; 200 ] in
  let reps = if quick then 2 else 3 in
  let dmax = 3 in
  let config = Config.make ~dmax () in
  let table =
    Table.create ~title:"E9: scalability with network size (Dmax=3, rgg)"
      ~columns:
        [
          "n";
          "rounds (mean ± sd)";
          "messages (mean)";
          "groups";
          "agree+safe";
          "maximal";
        ]
  in
  List.iter
    (fun n ->
      let runs =
        Pool.map ~jobs reps (fun r ->
            let seed = 4000 + (n * 10) + r in
            Harness.converge ~max_rounds:4000 ~config ~seed:(seed + 1)
              (Harness.rgg ~seed ~n ()))
      in
      let rounds = List.filter_map (fun c -> Option.map float_of_int c.Harness.rounds) runs in
      let count p = List.length (List.filter p runs) in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_summary (Stats.summarize rounds);
          Table.cell_float ~decimals:0
            (Stats.mean (List.map (fun c -> float_of_int c.Harness.messages) runs));
          Table.cell_float ~decimals:1
            (Stats.mean (List.map (fun c -> float_of_int c.Harness.groups) runs));
          Printf.sprintf "%d/%d" (count (fun c -> c.Harness.agree_safe)) reps;
          Printf.sprintf "%d/%d" (count (fun c -> c.Harness.legitimate)) reps;
        ])
    sizes;
  [ table ]
