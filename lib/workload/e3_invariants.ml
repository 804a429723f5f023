module Table = Dgs_metrics.Table
module Gen = Dgs_graph.Gen
module Rounds = Dgs_sim.Rounds
module P = Dgs_spec.Predicates
module Cfg = Dgs_spec.Configuration
module Rng = Dgs_util.Rng
module Pool = Dgs_parallel.Pool
open Dgs_core

let scenarios ~quick =
  let rgg n seed = Harness.rgg ~seed ~n () in
  let base =
    [
      ("grid5x5/D2", Gen.grid 5 5, 2);
      ("ring12/D3", Gen.ring 12, 3);
      ("rgg30/D3", rgg 30 11, 3);
    ]
  in
  if quick then base
  else base @ [ ("rgg60/D3", rgg 60 13, 3); ("btree31/D4", Gen.binary_tree 31, 4) ]

(* Leftover mergeable pairs measure the conservatism of compatibleList in
   dense regions (DESIGN.md Section 5, item 14): agreement and safety are
   hard invariants, maximality is achieved modulo those refusals. *)
let run ?(quick = false) ?(jobs = 1) () =
  let window = if quick then 50 else 300 in
  let table =
    Table.create ~title:"E3: predicate closure after stabilization"
      ~columns:
        [
          "scenario";
          "converged";
          "window";
          "agreement+safety violations";
          "mergeable pairs left";
          "groups";
          "mean size";
          "max diam";
        ]
  in
  let rows =
    Pool.mapi_list ~jobs (scenarios ~quick) (fun (name, g, dmax) ->
        let config = Config.make ~dmax () in
        let t = Rounds.create ~config g in
        let rng = Rng.create 42 in
        let converged =
          Rounds.run_until_stable ~jitter:0.1 ~rng ~confirm:(dmax + 5)
            ~max_rounds:5000 t
        in
        let violations = ref 0 in
        for _ = 1 to window do
          ignore (Rounds.round ~jitter:0.1 ~rng t);
          let c = Harness.snapshot t g in
          if P.agreement c <> None || P.safety ~dmax c <> None then incr violations
        done;
        let c = Harness.snapshot t g in
        let groups = Cfg.groups c in
        let sizes = List.map Node_id.Set.cardinal groups in
        let max_diam =
          List.fold_left
            (fun acc grp -> max acc (Dgs_graph.Paths.diameter_of_set g grp))
            0 groups
        in
        [
          name;
          (match converged with Some r -> string_of_int r | None -> "no");
          Table.cell_int window;
          Table.cell_int !violations;
          Table.cell_int (Harness.mergeable_pairs ~dmax c);
          Table.cell_int (List.length groups);
          Table.cell_float ~decimals:1
            (Dgs_util.Stats.mean (List.map float_of_int sizes));
          Table.cell_int max_diam;
        ])
  in
  List.iter (Table.add_row table) rows;
  [ table ]
