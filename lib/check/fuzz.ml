module Rng = Dgs_util.Rng
module Pool = Dgs_parallel.Pool
module Registry = Dgs_metrics.Registry
module Names = Dgs_metrics.Names

type failure = {
  run : int;
  scenario : Scenario.t;
  shrunk : Scenario.t;
  first_violation : Oracle.violation;
  report : Oracle.report;
}

type summary = {
  master_seed : int;
  runs : int;
  max_actions : int;
  failures : failure list;
  stabilized_runs : int;
  total_evictions : int;
  maximality_gaps : int;
  run_snapshots : Registry.snapshot list;
  metrics : Registry.snapshot option;
  coverage : Coverage.report option;
}

let replay ?strict_continuity ?trace ?metrics sc =
  Executor.run ?strict_continuity ?trace ?metrics sc

(* One whole task: generate, execute, judge, and (on failure) shrink.
   A pure function of [(master state, run index)] — per-run randomness is
   derived with [Rng.split_at], which matches what the historical
   sequential loop drew with [Rng.split], but is independent of execution
   order, so a work pool may run the tasks in any interleaving.  Shrinking
   happens inside the task (it is deterministic given the scenario), so
   parallel campaigns scale over the expensive part too.

   Metrics: the run's protocol/simulation counters go to a private per-run
   registry (snapshotted into the result — a pure function of the
   scenario, so the snapshot list is jobs-independent), while the campaign
   runner's own counters (runs started, failures, run wall clock) go to
   [domain_reg], the per-domain registry of whichever pool worker claimed
   the task.  Shrink replays run unmetered: the per-run snapshot describes
   the original execution only. *)
let execute_one ~strict_continuity ~with_metrics domain_reg run sc =
  let d_runs = Registry.counter domain_reg Names.fuzz_run_total in
  let d_failures = Registry.counter domain_reg Names.fuzz_failure_total in
  let d_run_ns = Registry.timer domain_reg Names.fuzz_run_ns in
  let reg = if with_metrics then Registry.create () else Registry.null in
  Registry.Counter.incr d_runs;
  let t0 = Registry.Timer.start d_run_ns in
  let report = Executor.run ~strict_continuity ~metrics:reg sc in
  Registry.Timer.stop d_run_ns t0;
  let failure =
    match report.Oracle.violations with
    | [] -> None
    | v0 :: _ ->
        Registry.Counter.incr d_failures;
        let still_fails sc' =
          let r = Executor.run ~strict_continuity sc' in
          List.exists
            (fun v -> String.equal v.Oracle.check v0.Oracle.check)
            r.Oracle.violations
        in
        let shrunk = Shrink.minimize ~still_fails sc in
        Some { run; scenario = sc; shrunk; first_violation = v0; report }
  in
  let snap = if with_metrics then Some (Registry.snapshot reg) else None in
  (sc, report, failure, snap)

let run_one ~strict_continuity ~max_actions ~master ~with_metrics domain_reg
    run =
  let rng = Rng.split_at master run in
  let sc = Scenario.generate rng ~max_actions in
  execute_one ~strict_continuity ~with_metrics domain_reg run sc

(* Generations per weight update in guided mode.  Generation happens in
   the caller with the weights current at the start of the batch, the
   batch executes on the pool, and the evolver folds the batch's
   signatures in run order at the barrier — so the signature stream (and
   hence every weight vector and every generated scenario) is independent
   of [jobs] and of worker interleaving. *)
let coverage_batch = 50

let guided ~strict_continuity ~jobs ~make ~evolve ~runs ~max_actions ~master =
  let cov = Coverage.create () in
  let results = ref [] in
  let domain_regs = ref [] in
  let base = ref 0 in
  while !base < runs do
    let b = min coverage_batch (runs - !base) in
    let start = !base in
    let weights = Coverage.weights cov in
    let scs =
      Array.init b (fun i ->
          Scenario.generate_weighted
            (Rng.split_at master (start + i))
            ~max_actions ~weights)
    in
    let batch_results, dregs =
      Pool.map_ctx ~jobs ~make b (fun dreg i ->
          (* Per-run metrics are always live here: the coverage signature
             is read off the run's snapshot. *)
          execute_one ~strict_continuity ~with_metrics:true dreg (start + i)
            scs.(i))
    in
    let sigs =
      List.mapi
        (fun i (_, report, _, snap) ->
          Coverage.of_run scs.(i) report (Option.get snap))
        batch_results
    in
    Coverage.observe ~evolve cov sigs;
    results := List.rev_append batch_results !results;
    domain_regs := List.rev_append dregs !domain_regs;
    base := start + b
  done;
  (List.rev !results, List.rev !domain_regs, Some (Coverage.report cov))

let campaign ?(strict_continuity = false) ?(jobs = 1) ?(metrics = false)
    ?(coverage = false) ?(evolve = true) ~seed ~runs ~max_actions
    ?(on_run = fun _ _ _ -> ()) () =
  let master = Rng.create seed in
  let make () = if metrics then Registry.create () else Registry.null in
  let results, domain_regs, coverage_report =
    if coverage then
      guided ~strict_continuity ~jobs ~make ~evolve ~runs ~max_actions ~master
    else
      let r, d =
        Pool.map_ctx ~jobs ~make runs
          (run_one ~strict_continuity ~max_actions ~master ~with_metrics:metrics)
      in
      (r, d, None)
  in
  (* Aggregation walks the ordered results in the caller, so the summary
     (and every [on_run] observation) is byte-identical for every [jobs]. *)
  let failures = ref [] in
  let stabilized_runs = ref 0 in
  let total_evictions = ref 0 in
  let maximality_gaps = ref 0 in
  List.iteri
    (fun run (sc, report, failure, _) ->
      on_run run sc report;
      if report.Oracle.stabilized then incr stabilized_runs;
      total_evictions := !total_evictions + report.Oracle.evictions;
      if report.Oracle.maximality_gap then incr maximality_gaps;
      match failure with None -> () | Some f -> failures := f :: !failures)
    results;
  let run_snapshots =
    (* Guided runs are always metered internally (for signatures); the
       snapshots are only published when the caller asked for metrics. *)
    if metrics then List.filter_map (fun (_, _, _, s) -> s) results else []
  in
  let coverage_snapshot =
    match coverage_report with
    | Some r when metrics ->
        let reg = Registry.create () in
        Registry.Counter.add
          (Registry.counter reg Names.fuzz_coverage_new_total)
          r.Coverage.new_points;
        Registry.Counter.add
          (Registry.counter reg Names.fuzz_rare_hit_total)
          r.Coverage.rare_hits;
        Registry.Gauge.set
          (Registry.gauge reg Names.fuzz_coverage_rare_families)
          (float_of_int (List.length r.Coverage.rare_families_hit));
        List.iter
          (fun (name, w) ->
            Registry.Gauge.set
              (Registry.gauge reg
                 (Registry.labelled Names.fuzz_generator_weight
                    [ ("family", name) ]))
              w)
          r.Coverage.final_weights;
        [ Registry.snapshot reg ]
    | _ -> []
  in
  let merged =
    if not metrics then None
    else
      (* Domain registries hold only the fuzz_* runner families, per-run
         registries only the simulation families (and the coverage
         snapshot only the campaign-level fuzz_coverage_* families), so
         summing all sides never double-counts; every counter in the
         merge is a sum of jobs-independent contributions. *)
      Some
        (Registry.merge
           (List.map (fun r -> Registry.snapshot ~jobs r) domain_regs
           @ run_snapshots @ coverage_snapshot))
  in
  {
    master_seed = seed;
    runs;
    max_actions;
    failures = List.rev !failures;
    stabilized_runs = !stabilized_runs;
    total_evictions = !total_evictions;
    maximality_gaps = !maximality_gaps;
    run_snapshots;
    metrics = merged;
    coverage = coverage_report;
  }

let save_repro ~dir f =
  let path =
    Filename.concat dir
      (Printf.sprintf "repro-run%d-%s.json" f.run f.first_violation.Oracle.check)
  in
  Scenario.save path f.shrunk;
  path

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>fuzz: seed=%d runs=%d max-actions=%d@," s.master_seed
    s.runs s.max_actions;
  Format.fprintf ppf
    "stabilized %d/%d runs, %d evictions total, %d maximality gaps@,"
    s.stabilized_runs s.runs s.total_evictions s.maximality_gaps;
  (match s.coverage with
  | Some r -> Format.fprintf ppf "%a@," Coverage.pp_report r
  | None -> ());
  (match s.failures with
  | [] -> Format.fprintf ppf "no violations"
  | fs ->
      Format.fprintf ppf "%d failing run(s):" (List.length fs);
      List.iter
        (fun f ->
          Format.fprintf ppf "@,@[<v2>run %d: %a@,shrunk %d -> %d action(s)@,%s@]"
            f.run Oracle.pp_violation f.first_violation
            (List.length f.scenario.Scenario.actions)
            (List.length f.shrunk.Scenario.actions)
            (Scenario.to_string f.shrunk))
        fs);
  Format.fprintf ppf "@]"
