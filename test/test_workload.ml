(* Smoke tests for the experiment harness: the registry is sound and the
   fast experiments produce well-formed, populated tables in quick mode
   (the full campaign is `grp_sim experiment all`). *)

module Experiments = Dgs_workload.Experiments
module Table = Dgs_metrics.Table

let check = Alcotest.(check bool)

let test_registry () =
  check "thirteen experiments" true (List.length Experiments.all = 13);
  List.iteri
    (fun i e ->
      check "ids ordered" true (e.Experiments.id = Printf.sprintf "e%d" (i + 1)))
    Experiments.all;
  check "find hit" true (Experiments.find "e5" <> None);
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

(* E12 prepares its per-size worlds on the pool: the deterministic CSV
   columns (n for the build table, n and groups for the oracle table)
   must be byte-identical for jobs 1 and 2.  Wall-clock cells are
   excluded — they are real measurements and move run to run. *)
let test_e12_jobs_determinism () =
  let deterministic tables =
    List.mapi
      (fun i t ->
        let keep = if i = 1 then 2 else 1 in
        Table.to_csv t |> String.split_on_char '\n'
        |> List.map (fun line ->
               String.split_on_char ',' line
               |> List.filteri (fun j _ -> j < keep)
               |> String.concat ",")
        |> String.concat "\n")
      tables
  in
  let run jobs = Dgs_workload.E12_scaling.run ~quick:true ~jobs () in
  let t1 = run 1 and t2 = run 2 in
  Alcotest.(check (list string))
    "deterministic columns identical across jobs" (deterministic t1)
    (deterministic t2)

let suite =
  [
    ("registry", `Quick, test_registry);
    ("e2 quick run", `Slow, test_e2);
    ("e4 quick run", `Slow, test_e4);
    ("e10 quick run", `Slow, test_e10);
    ("e12 jobs determinism", `Slow, test_e12_jobs_determinism);
  ]
