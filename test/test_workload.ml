(* Smoke tests for the experiment harness: the registry is sound and the
   fast experiments produce well-formed, populated tables in quick mode
   (the full campaign is `grp_sim experiment all`). *)

module Experiments = Dgs_workload.Experiments
module Table = Dgs_metrics.Table

let check = Alcotest.(check bool)

let test_registry () =
  (* Retired ids (E11, E12) are never reused, so docs and CHANGES.md keep
     pointing at the right tables. *)
  Alcotest.(check (list string))
    "ids" [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "e13" ]
    (List.map (fun e -> e.Experiments.id) Experiments.all);
  check "find hit" true (Experiments.find "e5" <> None);
  check "find retired" true (Experiments.find "e12" = None);
  check "find miss" true (Experiments.find "e99" = None)

let run_quick id =
  match Experiments.find id with
  | None -> Alcotest.failf "experiment %s missing" id
  | Some e ->
      let tables = e.Experiments.run ~quick:true () in
      check (id ^ " produces tables") true (tables <> []);
      List.iter
        (fun t ->
          check (id ^ " rows") true (Table.row_count t > 0);
          check (id ^ " renders") true (String.length (Table.render t) > 0);
          check (id ^ " csv") true (String.length (Table.to_csv t) > 0))
        tables

let test_e2 () = run_quick "e2"
let test_e4 () = run_quick "e4"
let test_e10 () = run_quick "e10"

let suite =
  [
    ("registry", `Quick, test_registry);
    ("e2 quick run", `Slow, test_e2);
    ("e4 quick run", `Slow, test_e4);
    ("e10 quick run", `Slow, test_e10);
  ]
