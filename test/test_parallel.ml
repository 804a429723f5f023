(* Tests for the deterministic work pool and the --jobs campaign path:
   pool ordering and error propagation, the order-independent per-task RNG
   derivation (Rng.split_at), byte-identical parallel campaigns (the
   report_to_json encoding is the comparison key), and sequential-vs-
   parallel replays of the fixed-bug regression corpus. *)

module Pool = Dgs_parallel.Pool
module Rng = Dgs_util.Rng
module Scenario = Dgs_check.Scenario
module Oracle = Dgs_check.Oracle
module Executor = Dgs_check.Executor
module Fuzz = Dgs_check.Fuzz

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- the pool itself --- *)

let test_map_ordered () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves task order" jobs)
        (List.init 37 (fun i -> i * i))
        (Pool.map ~jobs 37 (fun i -> i * i)))
    [ 1; 2; 3; 8 ]

let test_map_more_jobs_than_tasks () =
  Alcotest.(check (list int))
    "jobs > n" [ 0; 10; 20 ]
    (Pool.map ~jobs:16 3 (fun i -> i * 10));
  Alcotest.(check (list int)) "n = 0" [] (Pool.map ~jobs:4 0 (fun i -> i));
  Alcotest.(check (list int)) "n = 1" [ 7 ] (Pool.map ~jobs:4 1 (fun _ -> 7))

let test_mapi_list () =
  Alcotest.(check (list string))
    "mapi_list order" [ "A"; "B"; "C" ]
    (Pool.mapi_list ~jobs:2 [ "a"; "b"; "c" ] String.uppercase_ascii)

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      match Pool.map ~jobs 20 (fun i -> if i mod 7 = 3 then raise (Boom i) else i) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom i ->
          (* Tasks 3, 10 and 17 all raise; the lowest index must win
             regardless of which worker hit its failure first. *)
          check_int (Printf.sprintf "jobs=%d: lowest-index error wins" jobs) 3 i)
    [ 1; 2; 4 ]

let test_tasks_see_own_index () =
  (* A pool with contention: tasks of very different sizes, so workers
     claim indices far out of order — results must still land in order. *)
  let f i =
    let acc = ref 0 in
    for k = 1 to (i mod 7) * 10_000 do
      acc := !acc + k
    done;
    ignore (Sys.opaque_identity !acc);
    i + 100
  in
  Alcotest.(check (list int))
    "uneven tasks, ordered results"
    (List.init 64 (fun i -> i + 100))
    (Pool.map ~jobs:8 64 f)

(* --- per-domain contexts --- *)

let test_map_ctx_contexts () =
  (* Every context is created before any task runs on it, every task runs
     on exactly one context, and the sum over contexts covers the work
     exactly once — for any jobs value, including jobs > n. *)
  List.iter
    (fun jobs ->
      let make () = ref 0 in
      let results, ctxs =
        Pool.map_ctx ~jobs ~make 40 (fun ctx i ->
            ctx := !ctx + i;
            i * 2)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d: results ordered" jobs)
        (List.init 40 (fun i -> i * 2))
        results;
      check
        (Printf.sprintf "jobs=%d: context count bounded by jobs" jobs)
        true
        (List.length ctxs >= 1 && List.length ctxs <= max 1 jobs);
      check_int
        (Printf.sprintf "jobs=%d: contexts partition the work" jobs)
        (40 * 39 / 2)
        (List.fold_left (fun acc c -> acc + !c) 0 ctxs))
    [ 1; 2; 4; 64 ]

let test_map_ctx_empty () =
  let results, ctxs = Pool.map_ctx ~jobs:4 ~make:(fun () -> ()) 0 (fun () i -> i) in
  check "no tasks, no results" true (results = []);
  check "no tasks, no contexts" true (ctxs = [])

(* --- order-independent RNG derivation --- *)

let test_split_at_matches_sequential_split () =
  (* The campaign's per-run seeds were historically drawn by splitting a
     master RNG once per run, in order.  split_at must reproduce exactly
     that stream without mutating the master, for any index, in any
     order. *)
  let master = Rng.create 20260807 in
  let sequential =
    List.init 20 (fun _ ->
        let r = Rng.split master in
        Rng.int r 1_000_000)
  in
  let master' = Rng.create 20260807 in
  let by_index i = Rng.int (Rng.split_at master' i) 1_000_000 in
  (* Query out of order on purpose. *)
  List.iter
    (fun i ->
      check_int
        (Printf.sprintf "split_at %d = %d-th split" i i)
        (List.nth sequential i) (by_index i))
    (List.init 20 (fun i -> 19 - i));
  (* split_at must not advance the master: the next real split is still
     the 0-th one. *)
  let first_after = Rng.int (Rng.split master') 1_000_000 in
  check_int "master state untouched by split_at" (List.nth sequential 0)
    first_after

let test_split_at_rejects_negative () =
  let master = Rng.create 1 in
  match Rng.split_at master (-1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- parallel campaigns are byte-identical --- *)

let campaign_reports ~jobs ~seed ~runs ~max_actions =
  let reports = ref [] in
  let s =
    Fuzz.campaign ~jobs ~seed ~runs ~max_actions
      ~on_run:(fun run sc report ->
        reports :=
          (run, Scenario.to_string sc, Oracle.report_to_json report) :: !reports)
      ()
  in
  (s, List.rev !reports)

let test_campaign_jobs_byte_identical () =
  (* Also the CI parallel-campaign smoke: >= 50 scenarios through the
     multi-domain path on every runtest. *)
  let seq_summary, seq_reports =
    campaign_reports ~jobs:1 ~seed:4242 ~runs:50 ~max_actions:8
  in
  List.iter
    (fun jobs ->
      let par_summary, par_reports =
        campaign_reports ~jobs ~seed:4242 ~runs:50 ~max_actions:8
      in
      check
        (Printf.sprintf "jobs=%d: per-run scenarios and reports byte-identical" jobs)
        true
        (List.equal
           (fun (r, sc, rep) (r', sc', rep') ->
             r = r' && String.equal sc sc' && String.equal rep rep')
           seq_reports par_reports);
      check_int
        (Printf.sprintf "jobs=%d: same stabilized count" jobs)
        seq_summary.Fuzz.stabilized_runs par_summary.Fuzz.stabilized_runs;
      check_int
        (Printf.sprintf "jobs=%d: same eviction total" jobs)
        seq_summary.Fuzz.total_evictions par_summary.Fuzz.total_evictions;
      check_int
        (Printf.sprintf "jobs=%d: same failure count" jobs)
        (List.length seq_summary.Fuzz.failures)
        (List.length par_summary.Fuzz.failures))
    [ 2; 4 ]

let test_campaign_shrunk_failures_identical () =
  (* A campaign with real failures: strict continuity turns ordinary
     evictions into violations, so shrinking runs inside the pool tasks.
     The shrunk scripts must come out identical too. *)
  let fingerprint jobs =
    let s =
      Fuzz.campaign ~strict_continuity:true ~jobs ~seed:99 ~runs:12 ~max_actions:10 ()
    in
    List.map
      (fun f ->
        ( f.Fuzz.run,
          f.Fuzz.first_violation.Oracle.check,
          Scenario.to_string f.Fuzz.shrunk ))
      s.Fuzz.failures
  in
  let seq = fingerprint 1 in
  check "strict campaign finds failures" true (seq <> []);
  check "jobs=3: identical shrunk failures" true (fingerprint 3 = seq)

(* --- campaign metrics are jobs-independent --- *)

let test_campaign_metrics_jobs_deterministic () =
  let module Registry = Dgs_metrics.Registry in
  let fingerprint jobs =
    let s = Fuzz.campaign ~jobs ~metrics:true ~seed:4242 ~runs:24 ~max_actions:8 () in
    let merged =
      match s.Fuzz.metrics with
      | Some m -> m
      | None -> Alcotest.fail "metrics:true must produce a merged snapshot"
    in
    ( List.map Registry.counters_to_json s.Fuzz.run_snapshots,
      Registry.counters_to_json merged,
      merged )
  in
  let seq_runs, seq_merged, merged1 = fingerprint 1 in
  check_int "one snapshot per run" 24 (List.length seq_runs);
  check "protocol counters flowed" true
    (List.assoc "grp_compute_total" merged1.Registry.counters > 0);
  check "runner counters flowed" true
    (List.assoc "fuzz_run_total" merged1.Registry.counters = 24);
  List.iter
    (fun jobs ->
      let par_runs, par_merged, _ = fingerprint jobs in
      check
        (Printf.sprintf "jobs=%d: per-run counter snapshots byte-identical" jobs)
        true
        (List.equal String.equal seq_runs par_runs);
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d: merged counters byte-identical" jobs)
        seq_merged par_merged)
    [ 2; 4 ];
  (* metrics off: no snapshots, no merge *)
  let s = Fuzz.campaign ~jobs:2 ~seed:4242 ~runs:4 ~max_actions:8 () in
  check "metrics default off" true
    (s.Fuzz.run_snapshots = [] && s.Fuzz.metrics = None)

(* --- regression corpus: sequential vs parallel replay --- *)

let test_corpus_replay_seq_vs_par () =
  let files =
    Sys.readdir "regressions" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  check "corpus is non-empty" true (files <> []);
  let scenarios =
    List.map
      (fun f ->
        match Scenario.load (Filename.concat "regressions" f) with
        | Some sc -> (f, sc)
        | None -> Alcotest.failf "cannot load test/regressions/%s" f)
      files
  in
  let encode (_, sc) = Oracle.report_to_json (Executor.run sc) in
  let sequential = List.map encode scenarios in
  let parallel = Pool.mapi_list ~jobs:2 scenarios encode in
  List.iteri
    (fun i ((name, _), (s, p)) ->
      ignore i;
      Alcotest.(check string)
        (name ^ ": parallel replay report identical (livelock_period, \
          violations, counters)")
        s p)
    (List.combine scenarios (List.combine sequential parallel))

let suite =
  [
    ("pool map is ordered", `Quick, test_map_ordered);
    ("pool handles jobs > tasks", `Quick, test_map_more_jobs_than_tasks);
    ("pool mapi_list", `Quick, test_mapi_list);
    ("map_ctx partitions work over contexts", `Quick, test_map_ctx_contexts);
    ("map_ctx with no tasks", `Quick, test_map_ctx_empty);
    ("pool re-raises lowest-index error", `Quick, test_exception_propagates);
    ("pool orders uneven tasks", `Quick, test_tasks_see_own_index);
    ("split_at matches sequential split", `Quick, test_split_at_matches_sequential_split);
    ("split_at rejects negative index", `Quick, test_split_at_rejects_negative);
    ("campaign --jobs is byte-identical (smoke, 50 scenarios)", `Quick, test_campaign_jobs_byte_identical);
    ("parallel shrinking is deterministic", `Quick, test_campaign_shrunk_failures_identical);
    ("campaign metrics are jobs-independent", `Quick, test_campaign_metrics_jobs_deterministic);
    ("regression corpus: seq vs parallel replay", `Quick, test_corpus_replay_seq_vs_par);
  ]
