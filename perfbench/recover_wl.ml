(* recover: local repair inside an otherwise quiet network, the paper's
   self-stabilization claim.  Set-up brings four random geometric graphs
   on the Sharded runner to stable legitimate states.  Then transient
   faults strike each network in turn, once every [period] rounds: each
   op corrupts 5% of a network's nodes (arbitrary lists and views from
   Dgs_check.Arbitrary) and runs it to its next fault.  Most node-rounds
   are quiet, so the round cost is delivery plus the cached compute path.
   Four graphs rather than one larger one keep the per-graph differences
   in group structure from dominating a run, while ops stay short.

   Within the period the network must become stable again: every node's
   list, view and quarantines unchanged for [confirm] rounds
   (Rounds.run_until_stable's test), after which the incremental oracle
   must report agreement and safety and no view may change for the rest
   of the period.  An op fails when either does not hold.  A slow repair
   stretches the period until the network is stable.

   Two open protocol findings are counted instead of failed: a ΠM gap,
   and a livelock, where a few nodes never stop changing (the op then
   spends the whole reconvergence budget).  After a livelock, or a
   failure, the network starts over with the next jitter seed, outside
   the op's time, so later ops start from a stable state again; set-up
   does the same when its first jitter seed livelocks. *)

open Common
open Dgs_core
module Harness = Dgs_workload.Harness
module Sharded = Dgs_sim.Sharded
module Incremental = Dgs_spec.Incremental
module P = Dgs_spec.Predicates
module Rng = Dgs_util.Rng
module Arbitrary = Dgs_check.Arbitrary

let dmax = 3
let jitter = 0.1
let confirm = dmax + 5
let setup_budget = 400
let reconverge_budget = 500
let max_starts = 8

(* One network on the graph, with the state its stability test and its
   oracle keep between rounds. *)
type net = {
  graph : Dgs_graph.Graph.t;
  sh : Sharded.t;
  ids : Node_id.t array;
  lists : Antlist.t array;
  views : Node_id.Set.t array;
  quars : int Node_id.Map.t array;
  inc : Incremental.t;
  snap : Harness.Snapshotter.t;
}

let node net k = Sharded.node net.sh net.ids.(k)

let start ~config ~reg ~seed graph =
  let sh = Sharded.create ~config ~seed ~make_metrics:(fun _ -> reg) graph in
  let ids = Array.of_list (Sharded.node_ids sh) in
  let at f = Array.map (fun v -> f (Sharded.node sh v)) ids in
  {
    graph;
    sh;
    ids;
    lists = at Grp_node.antlist;
    views = at Grp_node.view;
    quars = at Grp_node.quarantines;
    inc = Incremental.create ~cross_check_limit:0 ~dmax ();
    snap = Harness.Snapshotter.create ();
  }

(* Whether any node's list, view or quarantines changed since the last
   call. *)
let changed net =
  let c = ref false in
  for k = 0 to Array.length net.ids - 1 do
    let nd = node net k in
    let l = Grp_node.antlist nd and v = Grp_node.view nd and q = Grp_node.quarantines nd in
    if
      not
        (Antlist.equal l net.lists.(k)
        && Node_id.Set.equal v net.views.(k)
        && Node_id.Map.equal Int.equal q net.quars.(k))
    then begin
      c := true;
      net.lists.(k) <- l;
      net.views.(k) <- v;
      net.quars.(k) <- q
    end
  done;
  !c

let snapshot net =
  Harness.Snapshotter.snapshot_views net.snap ~ids:(Array.to_list net.ids)
    ~view:(fun v -> Grp_node.view (Sharded.node net.sh v))
    net.graph

let sound (v : Incremental.verdicts) =
  v.Incremental.agreement = None && v.Incremental.safety = None

let setup ~traced ~quick ~seed ~spans =
  let n = if quick then 60 else 200 in
  let networks = if quick then 1 else 4 in
  let period = if quick then 30 else 100 in
  let victims = max 1 (n / 20) in
  let config = Config.make ~dmax () in
  let master = Rng.create seed in
  let gseeds =
    Array.init networks (fun k -> Rng.int (Rng.split_at master (k + 1)) 0x3FFFFFFF)
  in
  let op_master = Rng.split_at master 0 in
  let reg = if traced then Registry.create () else Registry.null in
  let unjustified = ref 0 in
  let round net =
    let infos = sharded_round spans net.sh ~jitter in
    if traced then
      Node_id.Map.iter
        (fun v i ->
          unjustified :=
            !unjustified
            + unjustified_evictions ~dmax net.graph (Grp_node.view (Sharded.node net.sh v)) i)
        infos;
    infos
  in
  (* Rounds executed until stable, the confirmation window included. *)
  let settle net ~budget =
    let rec go r streak =
      if streak >= confirm then Some r
      else if r >= budget then None
      else begin
        ignore (round net);
        let c = timed spans "sim.quiescence_check" (fun () -> changed net) in
        go (r + 1) (if c then 0 else streak + 1)
      end
    in
    go 0 0
  in
  let poll net =
    timed spans "spec.poll" (fun () -> Incremental.check net.inc (snapshot net))
  in
  let graphs = Array.map (fun gseed -> Harness.rgg ~seed:gseed ~n ()) gseeds in
  let starts = Array.make networks 0 in
  let rec stable_start k =
    if starts.(k) = max_starts then failwith "recover: no jitter seed reached a stable state";
    (* Let the collector reclaim an abandoned network before the next. *)
    if starts.(k) > 0 then Gc.full_major ();
    starts.(k) <- starts.(k) + 1;
    let net = start ~config ~reg ~seed:(gseeds.(k) + starts.(k)) graphs.(k) in
    match settle net ~budget:setup_budget with
    | Some _ when sound (poll net) -> net
    | _ -> stable_start k
  in
  let nets = Array.init networks stable_start in
  let base = Registry.snapshot reg in
  unjustified := 0;
  let ops = ref 0 and failed = ref 0 and gaps = ref 0 and legit = ref 0 and livelocks = ref 0 in
  let steady_changes = ref 0 and messages = ref 0 and dirtied = ref 0 and polls = ref 0 in
  let rounds = ref [] and rounds_sum = ref 0 and node_rounds = ref 0 in
  let op i =
    let k = i mod networks in
    let cur = nets.(k) in
    let rng = Rng.split_at op_master i in
    let messages0 = Sharded.messages_sent cur.sh and stats0 = Incremental.stats cur.inc in
    let t0 = now () in
    timed spans "recover.corrupt" (fun () ->
        let perm = Rng.permutation rng n in
        for j = 0 to victims - 1 do
          let nd = node cur perm.(j) in
          Grp_node.corrupt_list nd (Arbitrary.antlist rng);
          Grp_node.corrupt_view nd (Arbitrary.node_set rng ~max_id:9)
        done);
    let settled = settle cur ~budget:reconverge_budget in
    let verdict, changes =
      match settled with
      | None -> (None, 0)
      | Some r ->
          let v = poll cur in
          let changes = ref 0 in
          for _ = r + 1 to period do
            Node_id.Map.iter
              (fun _ i ->
                if
                  not
                    (Node_id.Set.is_empty i.Grp_node.view_added
                    && Node_id.Set.is_empty i.Grp_node.view_removed)
                then incr changes)
              (round cur)
          done;
          (Some v, !changes)
    in
    let t1 = now () in
    let executed = Option.value ~default:reconverge_budget settled in
    let rounds_run = max executed period in
    let failed_op =
      match verdict with Some v -> (not (sound v)) || changes > 0 | None -> false
    in
    let stats = Incremental.stats cur.inc in
    incr ops;
    (match verdict with
    | None -> incr livelocks
    | Some v ->
        if sound v && v.Incremental.maximality <> None then incr gaps;
        if Incremental.legitimate v = None then incr legit);
    if failed_op then incr failed;
    steady_changes := !steady_changes + changes;
    messages := !messages + Sharded.messages_sent cur.sh - messages0;
    dirtied := !dirtied + stats.Incremental.dirtied - stats0.Incremental.dirtied;
    polls := !polls + stats.Incremental.polls - stats0.Incremental.polls;
    rounds := float_of_int (executed - confirm) :: !rounds;
    rounds_sum := !rounds_sum + executed;
    node_rounds := !node_rounds + (n * rounds_run);
    if failed_op || settled = None then nets.(k) <- stable_start k;
    { wall_s = t1 -. t0; node_rounds = n * rounds_run; failed = failed_op }
  in
  let counters () =
    [
      ("ops", !ops);
      ("failed", !failed);
      ("pim_gaps", !gaps);
      ("livelocks", !livelocks);
      ("rounds", !rounds_sum);
      ("steady_view_changes", !steady_changes);
      ("messages", !messages);
      ("starts", Array.fold_left ( + ) 0 starts);
    ]
  in
  let layers () =
    let nr = !node_rounds in
    let compute_s, core = core_layers ~base reg ~node_rounds:nr in
    core
    @ sharded_layers spans ~compute_s ~messages:!messages ~node_rounds:nr
    @ [
        ( "sim.quiescence_check_us_per_node_round",
          us_per (span_total spans "sim.quiescence_check") nr );
        ("spec.poll_us_per_node_round", us_per (span_total spans "spec.poll") nr);
        ("spec.dirtied_per_poll", ratio (float_of_int !dirtied) (float_of_int !polls));
        ("verdict.stabilize_rounds_p50", median !rounds);
        ("verdict.legitimate_share", ratio (float_of_int !legit) (float_of_int !ops));
        ("verdict.open_findings_per_kop", per_knr !livelocks !ops);
        ("verdict.unjustified_evictions_per_knr", per_knr !unjustified nr);
      ]
  in
  (* The incremental oracle agrees with the full predicates on the final
     configurations. *)
  let check () =
    let agrees net =
      let v = Incremental.check net.inc (snapshot net) in
      let c = snapshot net in
      (v.Incremental.agreement = None) = (P.agreement c = None)
      && (v.Incremental.safety = None) = (P.safety ~dmax c = None)
      && (v.Incremental.maximality = None) = (P.maximality ~dmax c = None)
    in
    if Array.for_all agrees nets then []
    else [ "recover: incremental oracle disagrees with the full predicates" ]
  in
  let summary () =
    Printf.sprintf
      "%d faults of %d nodes on %d networks of n=%d, %d failed, %d with a ΠM gap, %d livelocked, \
       reconvergence rounds p50 %.0f, %d view changes after re-stabilizing, %d network start(s)"
      !ops victims networks n !failed !gaps !livelocks (median !rounds) !steady_changes
      (Array.fold_left ( + ) 0 starts)
  in
  { op; counters; layers; check; summary }

let workload = { name = "recover"; fixed_ops = 2; setup }
