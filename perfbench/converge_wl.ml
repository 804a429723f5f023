(* converge: cold start.  Each op is one Harness.converge call (the path
   grp_sim converge and E1-E4 take) on a connected random geometric
   graph: every node starts alone, so compute runs its merge, contest and
   quarantine paths everywhere and the fold caches rarely hit.

   An op fails when the quiescent configuration breaks agreement or
   safety.  Two open protocol findings are counted instead: a maximality
   (ΠM) gap (verdict.legitimate_share) and a trial that never quiesces
   within the budget, a livelock (verdict.open_findings_per_kop). *)

open Common
open Dgs_core
module Harness = Dgs_workload.Harness
module Rounds = Dgs_sim.Rounds
module Graph = Dgs_graph.Graph
module P = Dgs_spec.Predicates
module Cfg = Dgs_spec.Configuration
module Rng = Dgs_util.Rng

let dmax = 3
let jitter = 0.1
let max_rounds = 2000

type acc = {
  mutable trials : int;
  mutable failed : int;
  mutable livelocks : int;
  mutable gaps : int;
  mutable legitimate : int;
  mutable rounds : float list;
  mutable rounds_sum : int;
  mutable messages : int;
  mutable node_rounds : int;
  mutable unjustified : int;
  mutable problems : string list;
}

let setup ~traced ~quick ~seed ~spans =
  (* Small graphs, so that a run holds well over a hundred trials: the
     rounds a trial takes vary by graph, and with the dozen trials a run
     of 300-node graphs holds, the median moves with the graphs drawn. *)
  let n = if quick then 40 else 60 in
  let pool = if quick then 2 else 128 in
  let config = Config.make ~dmax () in
  let master = Rng.create seed in
  let draw rng = Rng.int rng 0x3FFFFFFF in
  let graphs =
    Array.init pool (fun j ->
        Harness.rgg ~seed:(draw (Rng.split_at master j)) ~n ())
  in
  let jitter_master = Rng.split_at master pool in
  let op_seed i = draw (Rng.split_at jitter_master i) in
  let reg = if traced then Registry.create () else Registry.null in
  let replay_reg = if traced then Registry.create () else Registry.null in
  let a =
    {
      trials = 0;
      failed = 0;
      livelocks = 0;
      gaps = 0;
      legitimate = 0;
      rounds = [];
      rounds_sum = 0;
      messages = 0;
      node_rounds = 0;
      unjustified = 0;
      problems = [];
    }
  in
  let problem s = a.problems <- s :: a.problems in
  (* The traced pass replays each trial round by round with the trial's
     seed: round spans, the final predicate check, and by difference the
     quiescence checks inside Rounds.run_until_stable.  The replay must
     reproduce the trial's outcome. *)
  let replay g seed (c : Harness.convergence) ~executed ~trial_s =
    let t = Rounds.create ~config ~metrics:replay_reg g in
    let rng = Rng.create seed in
    let rounds_s = ref 0.0 in
    for _ = 1 to executed do
      let t0 = now () in
      let infos = Rounds.round ~jitter ~rng t in
      let t1 = now () in
      span spans "sim.rounds.round" t0 t1;
      rounds_s := !rounds_s +. (t1 -. t0);
      Node_id.Map.iter
        (fun v i ->
          a.unjustified <-
            a.unjustified
            + unjustified_evictions ~dmax g (Grp_node.view (Rounds.node t v)) i)
        infos
    done;
    let t0 = now () in
    let cfg = Harness.snapshot t g in
    let legitimate = P.legitimate ~dmax cfg = None in
    let agree_safe = P.agreement cfg = None && P.safety ~dmax cfg = None in
    let t1 = now () in
    span spans "spec.final_check" t0 t1;
    span spans "sim.rounds.quiescence_check" t1
      (t1 +. Float.max 0.0 (trial_s -. !rounds_s -. (t1 -. t0)));
    let groups = Cfg.groups cfg in
    if
      legitimate <> c.Harness.legitimate
      || agree_safe <> c.Harness.agree_safe
      || List.length groups <> c.Harness.groups
      || Rounds.messages_sent t <> c.Harness.messages
    then problem (Printf.sprintf "replay of trial seed %d diverged from Harness.converge" seed)
  in
  let op i =
    let g = graphs.(i mod pool) in
    let seed = op_seed i in
    let t0 = now () in
    let c = Harness.converge ~jitter ~max_rounds ~metrics:reg ~config ~seed g in
    let t1 = now () in
    span spans "converge.trial" t0 t1;
    let per_round = 2 * Graph.edge_count g in
    let executed = c.Harness.messages / per_round in
    if c.Harness.messages mod per_round <> 0 then
      problem (Printf.sprintf "trial seed %d: messages not a whole number of rounds" seed);
    let rounds = Option.value ~default:max_rounds c.Harness.rounds in
    let failed = c.Harness.rounds <> None && not c.Harness.agree_safe in
    a.trials <- a.trials + 1;
    if failed then a.failed <- a.failed + 1;
    if c.Harness.rounds = None then a.livelocks <- a.livelocks + 1
    else if c.Harness.agree_safe && not c.Harness.legitimate then a.gaps <- a.gaps + 1;
    if c.Harness.legitimate then a.legitimate <- a.legitimate + 1;
    a.rounds <- float_of_int rounds :: a.rounds;
    a.rounds_sum <- a.rounds_sum + rounds;
    a.messages <- a.messages + c.Harness.messages;
    a.node_rounds <- a.node_rounds + (n * executed);
    if traced then replay g seed c ~executed ~trial_s:(t1 -. t0);
    { wall_s = t1 -. t0; node_rounds = n * executed; failed }
  in
  let counters () =
    [
      ("trials", a.trials);
      ("failed", a.failed);
      ("pim_gaps", a.gaps);
      ("livelocks", a.livelocks);
      ("rounds", a.rounds_sum);
      ("messages", a.messages);
    ]
  in
  let layers () =
    let nr = a.node_rounds in
    let compute_s, core = core_layers replay_reg ~node_rounds:nr in
    core
    @ [
        ("sim.messages_per_node_round", ratio (float_of_int a.messages) (float_of_int nr));
        ( "sim.runner_self_us_per_node_round",
          us_per (span_total spans "sim.rounds.round" -. compute_s) nr );
        ( "sim.quiescence_check_us_per_node_round",
          us_per (span_total spans "sim.rounds.quiescence_check") nr );
        ("spec.poll_us_per_node_round", us_per (span_total spans "spec.final_check") nr);
        ("verdict.stabilize_rounds_p50", median a.rounds);
        ("verdict.legitimate_share", ratio (float_of_int a.legitimate) (float_of_int a.trials));
        ("verdict.open_findings_per_kop", per_knr a.livelocks a.trials);
        ("verdict.unjustified_evictions_per_knr", per_knr a.unjustified nr);
      ]
  in
  (* Determinism: the first trial, run again, gives the same outcome. *)
  let check () =
    if a.trials > 0 then begin
      let c0 = Harness.converge ~jitter ~max_rounds ~config ~seed:(op_seed 0) graphs.(0) in
      let rounds0 = Option.value ~default:max_rounds c0.Harness.rounds in
      if float_of_int rounds0 <> List.nth a.rounds (a.trials - 1) then
        problem "trial 0 is not deterministic"
    end;
    List.rev a.problems
  in
  let summary () =
    Printf.sprintf
      "%d trials at n=%d, %d failed, %d with a ΠM gap, %d livelocked, rounds p50 %.0f" a.trials n
      a.failed a.gaps a.livelocks (median a.rounds)
  in
  { op; counters; layers; check; summary }

let workload = { name = "converge"; fixed_ops = 2; setup }
