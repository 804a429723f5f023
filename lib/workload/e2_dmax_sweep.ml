module Table = Dgs_metrics.Table
module Gen = Dgs_graph.Gen
module Stats = Dgs_util.Stats
module Pool = Dgs_parallel.Pool
module P = Dgs_spec.Predicates
open Dgs_core

let symbol = function
  | "agreement" -> "ΠA"
  | "safety" -> "ΠS"
  | "maximality" -> "ΠM"
  | p -> p

let topologies = [ ("line24", Gen.line 24); ("ring24", Gen.ring 24); ("grid5x5", Gen.grid 5 5) ]

let run ?(quick = false) ?(jobs = 1) () =
  let dmaxes = if quick then [ 1; 2; 4 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let reps = if quick then 2 else 5 in
  let table =
    Table.create ~title:"E2: convergence vs Dmax (structured topologies)"
      ~columns:[ "topology"; "Dmax"; "rounds (mean ± sd)"; "groups"; "legitimate" ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun dmax ->
          let config = Config.make ~dmax () in
          let seed r = (dmax * 37) + r in
          let runs = Pool.map ~jobs reps (fun r -> Harness.converge ~config ~seed:(seed r) g) in
          (* Each illegitimate run is named by its seed and the first
             predicate it violates, so it can be replayed. *)
          let failures =
            List.concat
              (List.mapi
                 (fun r c ->
                   match c.Harness.violation with
                   | None -> []
                   | Some v -> [ Printf.sprintf "%d: %s" (seed r) (symbol v.P.predicate) ])
                 runs)
          in
          let rounds =
            List.filter_map (fun c -> Option.map float_of_int c.Harness.rounds) runs
          in
          Table.add_row table
            [
              name;
              Table.cell_int dmax;
              Table.cell_summary (Stats.summarize rounds);
              Table.cell_float ~decimals:1
                (Stats.mean (List.map (fun c -> float_of_int c.Harness.groups) runs));
              Printf.sprintf "%d/%d%s" (reps - List.length failures) reps
                (if failures = [] then ""
                 else Printf.sprintf " (%s)" (String.concat ", " failures));
            ])
        dmaxes)
    topologies;
  [ table ]
