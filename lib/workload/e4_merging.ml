module Table = Dgs_metrics.Table
module Gen = Dgs_graph.Gen
module Graph = Dgs_graph.Graph
module Rounds = Dgs_sim.Rounds
module Cfg = Dgs_spec.Configuration
module P = Dgs_spec.Predicates
module Rng = Dgs_util.Rng
module Stats = Dgs_util.Stats
module Pool = Dgs_parallel.Pool
open Dgs_core

let scratch_table ~quick ~jobs =
  let reps = if quick then 2 else 5 in
  let table =
    Table.create ~title:"E4a: merging from scratch (chains and loops of cliques)"
      ~columns:[ "scenario"; "Dmax"; "final groups"; "mergeable pairs left"; "legitimate" ]
  in
  let scenarios =
    [
      ("chain 3x3", Gen.group_chain ~groups:3 ~group_size:3, 2);
      ("chain 5x3", Gen.group_chain ~groups:5 ~group_size:3, 2);
      ("loop 4x3", Gen.group_loop ~groups:4 ~group_size:3, 2);
      ("loop 6x2", Gen.group_loop ~groups:6 ~group_size:2, 2);
    ]
  in
  List.iter
    (fun (name, g, dmax) ->
      let config = Config.make ~dmax () in
      let finals =
        Pool.map ~jobs reps (fun r ->
            let t = Rounds.create ~config g in
            let rng = Rng.create (100 + r) in
            ignore
              (Rounds.run_until_stable ~jitter:0.1 ~rng ~confirm:(dmax + 5)
                 ~max_rounds:4000 t);
            let c = Harness.snapshot t g in
            ( List.length (Cfg.groups c),
              Harness.mergeable_pairs ~dmax c,
              P.legitimate ~dmax c = None ))
      in
      Table.add_row table
        [
          name;
          Table.cell_int dmax;
          Table.cell_float ~decimals:1
            (Stats.mean (List.map (fun (g, _, _) -> float_of_int g) finals));
          Table.cell_float ~decimals:1
            (Stats.mean (List.map (fun (_, m, _) -> float_of_int m) finals));
          Printf.sprintf "%d/%d"
            (List.length (List.filter (fun (_, _, l) -> l) finals))
            reps;
        ])
    scenarios;
  table

(* Merge latency: stabilize two cliques apart, then add the bridge edge and
   count rounds until every node of both shares a single view. *)
let latency_table ~quick ~jobs =
  let reps = if quick then 3 else 10 in
  let table =
    Table.create ~title:"E4b: merge latency after a bridge edge appears"
      ~columns:
        [ "group sizes"; "Dmax"; "merge legal"; "merged"; "rounds to merge (mean ± sd)" ]
  in
  (* Two cliques joined by one edge have diameter 3, so the merge is legal
     only for Dmax >= 3; the Dmax=2 rows check that illegal merges are
     refused. *)
  let cases = [ (2, 2, 3); (3, 3, 3); (4, 4, 3); (3, 3, 2); (4, 4, 2) ] in
  List.iter
    (fun (s1, s2, dmax) ->
      let config = Config.make ~dmax () in
      let results =
        Pool.map ~jobs reps (fun r ->
            let g = Graph.create () in
            for i = 0 to s1 - 1 do
              Graph.add_node g i;
              for j = 0 to i - 1 do
                Graph.add_edge g i j
              done
            done;
            for i = s1 to s1 + s2 - 1 do
              Graph.add_node g i;
              for j = s1 to i - 1 do
                Graph.add_edge g i j
              done
            done;
            let t = Rounds.create ~config g in
            let rng = Rng.create (500 + r) in
            ignore
              (Rounds.run_until_stable ~jitter:0.1 ~rng ~confirm:(dmax + 5)
                 ~max_rounds:2000 t);
            Graph.add_edge g 0 s1;
            Rounds.set_graph t g;
            let merged_at = ref None in
            let budget = 300 in
            (try
               for round = 1 to budget do
                 ignore (Rounds.round ~jitter:0.1 ~rng t);
                 let everyone = Node_id.set_of_list (Graph.nodes g) in
                 let all_agree =
                   List.for_all
                     (fun v ->
                       Node_id.Set.equal (Grp_node.view (Rounds.node t v)) everyone)
                     (Graph.nodes g)
                 in
                 if all_agree then begin
                   merged_at := Some round;
                   raise Exit
                 end
               done
             with Exit -> ());
            !merged_at)
      in
      let merged = List.filter_map (fun x -> x) results in
      Table.add_row table
        [
          Printf.sprintf "%d+%d" s1 s2;
          Table.cell_int dmax;
          (if dmax >= 3 then "yes" else "no");
          Printf.sprintf "%d/%d" (List.length merged) reps;
          Table.cell_summary (Stats.summarize (List.map float_of_int merged));
        ])
    cases;
  table

let run ?(quick = false) ?(jobs = 1) () =
  [ scratch_table ~quick ~jobs; latency_table ~quick ~jobs ]
