type t = {
  id : string;
  title : string;
  run : ?quick:bool -> ?jobs:int -> unit -> Dgs_metrics.Table.t list;
}

let all =
  [
    { id = "e1"; title = "Convergence vs network size"; run = E1_convergence.run };
    { id = "e2"; title = "Convergence vs Dmax"; run = E2_dmax_sweep.run };
    { id = "e3"; title = "Predicate closure after stabilization"; run = E3_invariants.run };
    { id = "e4"; title = "Maximality and merging"; run = E4_merging.run };
    { id = "e5"; title = "Best-effort continuity under mobility"; run = E5_continuity.run };
    { id = "e6"; title = "Group stability vs k-clustering baselines"; run = E6_baselines.run };
    { id = "e7"; title = "Message-loss robustness"; run = E7_loss.run };
    { id = "e8"; title = "Mechanism ablations"; run = E8_ablation.run };
    { id = "e9"; title = "Scalability with network size"; run = E9_scalability.run };
    { id = "e10"; title = "Node churn"; run = E10_churn.run };
    { id = "e11"; title = "Parallel campaign speedup and determinism"; run = E11_parallel.run };
    { id = "e12"; title = "Scaling: spatial grid and incremental oracle"; run = E12_scaling.run };
    { id = "e13"; title = "Coverage-guided vs uniform fuzzing"; run = E13_coverage.run };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
