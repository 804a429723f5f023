(* fuzz: the protocol used the other way round — graphs of at most 9
   nodes on the event-driven Net/Engine runtime, with loss, frame
   corruption, churn and short-lived nodes, each judged by the oracle.
   Set-up generates the scenarios of a Fuzz.campaign (same master seed,
   same per-run streams); one op executes one of them under the oracle,
   as the campaign does.  A cache that pays off on long steady runs can
   cost here.

   An op fails on an oracle violation of a check that no scenario fails at
   this commit.  The three checks that some do fail (a livelock, a
   calm-window continuity eviction, disagreeing views at quiescence) are
   open protocol findings, counted per scenario as
   verdict.open_findings_per_kop. *)

open Common
module Scenario = Dgs_check.Scenario
module Executor = Dgs_check.Executor
module Oracle = Dgs_check.Oracle
module Fuzz = Dgs_check.Fuzz
module Rng = Dgs_util.Rng

let max_actions = 10
let known_open = [ "livelock"; "continuity"; "agreement" ]

(* Reports kept for the cross-check against Fuzz.campaign. *)
let checked_runs = 20

let setup ~traced ~quick ~seed ~spans =
  let pool = if quick then 50 else 2000 in
  let master = Rng.create seed in
  let scenarios =
    Array.init pool (fun i -> Scenario.generate (Rng.split_at master i) ~max_actions)
  in
  (* Generating scenarios takes microseconds, too little for a set-up time
     that stays comparable between runs, so set-up also executes a fixed
     tenth of the pool once, unmeasured, as a warm-up. *)
  for i = 0 to (pool / 10) - 1 do
    ignore (Executor.run scenarios.(pool - 1 - i))
  done;
  let reg = if traced then Registry.create () else Registry.null in
  let ops = ref 0 and failed = ref 0 and findings = ref 0 and legitimate = ref 0 in
  let computes = ref 0 and deliveries = ref 0 and fires = ref 0 and evictions = ref 0 in
  let quiesce = ref [] in
  let reports = Array.make checked_runs "" in
  let op i =
    let sc = scenarios.(i mod pool) in
    let t0 = now () in
    let r = Executor.run ~metrics:reg sc in
    let t1 = now () in
    span spans "check.scenario" t0 t1;
    if i < checked_runs then reports.(i) <- Oracle.report_to_json r;
    let open_, hard =
      List.partition (fun v -> List.mem v.Oracle.check known_open) r.Oracle.violations
    in
    incr ops;
    if hard <> [] then incr failed;
    if open_ <> [] then incr findings;
    if r.Oracle.violations = [] && r.Oracle.stabilized && not r.Oracle.maximality_gap then
      incr legitimate;
    computes := !computes + r.Oracle.computes;
    deliveries := !deliveries + r.Oracle.deliveries;
    fires := !fires + r.Oracle.engine_fires;
    evictions := !evictions + r.Oracle.evictions;
    Option.iter (fun t -> quiesce := (t /. Executor.tau_c) :: !quiesce) r.Oracle.quiesce_time;
    { wall_s = t1 -. t0; node_rounds = r.Oracle.computes; failed = hard <> [] }
  in
  let counters () =
    [
      ("scenarios", !ops);
      ("failed", !failed);
      ("open_findings", !findings);
      ("computes", !computes);
      ("deliveries", !deliveries);
      ("engine_fires", !fires);
      ("evictions", !evictions);
    ]
  in
  let layers () =
    let nr = !computes in
    let compute_s, core = core_layers reg ~node_rounds:nr in
    let snap = Registry.snapshot reg in
    let poll_s =
      match List.assoc_opt Names.oracle_poll_ns snap.Registry.timers with
      | Some t -> t.Registry.total_ns /. 1e9
      | None -> 0.0
    in
    core
    @ [
        ("sim.messages_per_node_round", ratio (float_of_int !deliveries) (float_of_int nr));
        ( "sim.runner_self_us_per_node_round",
          us_per (span_total spans "check.scenario" -. compute_s -. poll_s) nr );
        ("sim.engine_fires_per_node_round", ratio (float_of_int !fires) (float_of_int nr));
        ("spec.poll_us_per_node_round", us_per poll_s nr);
        ("verdict.stabilize_rounds_p50", median !quiesce);
        ("verdict.legitimate_share", ratio (float_of_int !legitimate) (float_of_int !ops));
        ("verdict.open_findings_per_kop", per_knr !findings !ops);
      ]
  in
  (* The first runs reproduce Fuzz.campaign's reports for the same seed. *)
  let check () =
    let k = min !ops checked_runs in
    let same = ref true in
    ignore
      (Fuzz.campaign ~seed ~runs:k ~max_actions
         ~on_run:(fun i sc r ->
           if not (Scenario.equal sc scenarios.(i) && Oracle.report_to_json r = reports.(i))
           then same := false)
         ());
    if !same then [] else [ "fuzz: the measured scenarios differ from Fuzz.campaign's" ]
  in
  let summary () =
    Printf.sprintf
      "%d scenarios, %d failed, %d with an open oracle finding (livelock, continuity, agreement)"
      !ops !failed !findings
  in
  { op; counters; layers; check; summary }

let workload = { name = "fuzz"; fixed_ops = 50; setup }
