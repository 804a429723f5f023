(* vanet_highway: the paper's highway setting under constant churn.  The
   benchmark drives Vanet.run's loop itself (mobility step, unit-disk
   rebuild through the spatial grid, Sharded.set_graph, Sharded.round,
   an incremental oracle poll every 5 rounds) so each round can be timed
   and attributed; the end-of-run check pins that this loop reproduces
   Vanet.run's counters.  One op is one loop iteration.  It is the only
   workload with mobility, graph rebuilds and set_graph, at a working set
   far past the CPU caches.

   Ops do not fail one by one: the topology never stops moving, so the
   verdicts (legitimate polls, unjustified evictions) are tracked as
   per-layer metrics. *)

open Common
open Dgs_core
module Harness = Dgs_workload.Harness
module Vanet = Dgs_workload.Vanet
module Mobility = Dgs_mobility.Mobility
module Sharded = Dgs_sim.Sharded
module Incremental = Dgs_spec.Incremental
module P = Dgs_spec.Predicates
module Rng = Dgs_util.Rng

let dmax = 3
let range = 2.0
let speed = 0.15
let dt = 1.0
let jitter = 0.1
let warmup = 5
let oracle_every = 5

type loop = {
  n : int;
  mob : Mobility.t;
  sh : Sharded.t;
  inc : Incremental.t;
  snap : Harness.Snapshotter.t;
  messages0 : int;
  mutable rounds : int;
  mutable computes : int;
  mutable evictions : int;
  mutable additions : int;
  mutable polls : int;
  mutable legitimate_polls : int;
  mutable last : Incremental.verdicts option;
}

(* Vanet.run's set-up at jobs = shards = 1. *)
let start ~seed ~n ~reg =
  let rng = Rng.create seed in
  let spec = Vanet.spec_of Vanet.Highway ~n ~range ~speed in
  let mob = Mobility.create (Rng.split rng) ~n spec in
  let shard_of = Sharded.spatial_partition ~shards:1 ~range (Mobility.positions mob) in
  let sh =
    Sharded.create ~config:(Config.make ~dmax ()) ~shards:1 ~jobs:1 ~seed ~shard_of
      ~make_metrics:(fun _ -> reg)
      (Mobility.graph mob ~range)
  in
  Sharded.run ~jitter sh warmup;
  {
    n;
    mob;
    sh;
    inc = Incremental.create ~dmax ();
    snap = Harness.Snapshotter.create ();
    messages0 = Sharded.messages_sent sh;
    rounds = 0;
    computes = 0;
    evictions = 0;
    additions = 0;
    polls = 0;
    legitimate_polls = 0;
    last = None;
  }

let snapshot l g =
  Harness.Snapshotter.snapshot_views l.snap ~ids:(Sharded.node_ids l.sh)
    ~view:(fun v -> Grp_node.view (Sharded.node l.sh v))
    g

(* One iteration of Vanet.run's measured loop. *)
let step spans l =
  l.rounds <- l.rounds + 1;
  timed spans "mobility.step" (fun () -> Mobility.step l.mob ~dt);
  let g = timed spans "graph.build" (fun () -> Mobility.graph l.mob ~range) in
  timed spans "sim.set_graph" (fun () -> Sharded.set_graph l.sh g);
  let infos = sharded_round spans l.sh ~jitter in
  Node_id.Map.iter
    (fun v i ->
      l.computes <- l.computes + 1;
      let removed = Node_id.Set.cardinal i.Grp_node.view_removed in
      let added = Node_id.Set.cardinal i.Grp_node.view_added in
      l.evictions <- l.evictions + removed;
      l.additions <- l.additions + added;
      if removed > 0 || added > 0 then Incremental.mark_dirty l.inc v)
    infos;
  if l.rounds mod oracle_every = 0 then
    timed spans "spec.poll" (fun () ->
        let v = Incremental.check l.inc (snapshot l g) in
        l.polls <- l.polls + 1;
        if Incremental.legitimate v = None then l.legitimate_polls <- l.legitimate_polls + 1;
        l.last <- Some v);
  (g, infos)

(* The measured loop on a small instance against Vanet.run itself. *)
let matches_vanet_run ~seed =
  let n = 200 and rounds = 10 in
  let l = start ~seed ~n ~reg:Registry.null in
  for _ = 1 to rounds do
    ignore (step spans_off l)
  done;
  let r =
    Vanet.run ~seed ~dmax ~range ~speed ~dt ~jitter ~warmup ~rounds ~oracle_every ~jobs:1
      ~shards:1 ~scenario:Vanet.Highway ~n ()
  in
  let verdicts_match =
    match l.last with
    | Some v ->
        (v.Incremental.agreement = None) = r.Vanet.agreement_ok
        && (v.Incremental.safety = None) = r.Vanet.safety_ok
        && (v.Incremental.maximality = None) = r.Vanet.maximality_ok
    | None -> false
  in
  Sharded.messages_sent l.sh - l.messages0 = r.Vanet.messages
  && l.computes = r.Vanet.computes
  && l.evictions = r.Vanet.evictions
  && l.additions = r.Vanet.additions
  && l.polls = r.Vanet.oracle_polls
  && verdicts_match

let setup ~traced ~quick ~seed ~spans =
  let n = if quick then 200 else 2000 in
  let reg = if traced then Registry.create () else Registry.null in
  let l = start ~seed ~n ~reg in
  let base = Registry.snapshot reg and stats0 = Incremental.stats l.inc in
  let unjustified = ref 0 in
  let op _ =
    let t0 = now () in
    let g, infos = step spans l in
    let t1 = now () in
    span spans "vanet.round" t0 t1;
    if traced then
      Node_id.Map.iter
        (fun v i ->
          unjustified :=
            !unjustified + unjustified_evictions ~dmax g (Grp_node.view (Sharded.node l.sh v)) i)
        infos;
    { wall_s = t1 -. t0; node_rounds = n; failed = false }
  in
  let messages () = Sharded.messages_sent l.sh - l.messages0 in
  let counters () =
    [
      ("rounds", l.rounds);
      ("messages", messages ());
      ("computes", l.computes);
      ("evictions", l.evictions);
      ("additions", l.additions);
      ("legitimate_polls", l.legitimate_polls);
    ]
  in
  let layers () =
    let nr = n * l.rounds in
    let compute_s, core = core_layers ~base reg ~node_rounds:nr in
    let stats = Incremental.stats l.inc in
    let dirtied = stats.Incremental.dirtied - stats0.Incremental.dirtied
    and polls = stats.Incremental.polls - stats0.Incremental.polls in
    core
    @ sharded_layers spans ~compute_s ~messages:(messages ()) ~node_rounds:nr
    @ [
        ("sim.set_graph_us_per_node_round", us_per (span_total spans "sim.set_graph") nr);
        ("graph.build_us_per_node_round", us_per (span_total spans "graph.build") nr);
        ("mobility.step_us_per_node_round", us_per (span_total spans "mobility.step") nr);
        ("spec.poll_us_per_node_round", us_per (span_total spans "spec.poll") nr);
        ("spec.dirtied_per_poll", ratio (float_of_int dirtied) (float_of_int polls));
        ( "verdict.legitimate_share",
          ratio (float_of_int l.legitimate_polls) (float_of_int l.polls) );
        ("verdict.unjustified_evictions_per_knr", per_knr !unjustified nr);
      ]
  in
  let check () =
    let problems = ref [] in
    let problem s = problems := s :: !problems in
    if not (matches_vanet_run ~seed) then
      problem "vanet_highway: the benchmark loop does not reproduce Vanet.run";
    (* In a traced pass the phases must account for the round. *)
    if spans.on && l.rounds > 0 then begin
      let total names = List.fold_left (fun acc s -> acc +. span_total spans s) 0.0 names in
      let within a b = Float.abs (a -. b) <= 0.05 *. b in
      if
        not
          (within
             (total [ "mobility.step"; "graph.build"; "sim.set_graph"; "sim.round"; "spec.poll" ])
             (span_total spans "vanet.round"))
      then problem "vanet_highway: phase spans do not sum to the round wall within 5%";
      if
        not
          (within
             (total [ "sim.broadcast"; "sim.barrier"; "sim.deliver_compute" ])
             (span_total spans "sim.round"))
      then problem "vanet_highway: Sharded phases do not sum to sim.round within 5%"
    end;
    (* The incremental oracle agrees with the full predicates at the end. *)
    let c = snapshot l (Sharded.graph l.sh) in
    let v = Incremental.check l.inc c in
    if
      (v.Incremental.agreement = None) <> (P.agreement c = None)
      || (v.Incremental.safety = None) <> (P.safety ~dmax c = None)
      || (v.Incremental.maximality = None) <> (P.maximality ~dmax c = None)
    then problem "vanet_highway: incremental oracle disagrees with the full predicates";
    List.rev !problems
  in
  let summary () =
    Printf.sprintf
      "%d rounds at n=%d, %d evictions and %d additions, %d/%d oracle polls legitimate" l.rounds
      n l.evictions l.additions l.legitimate_polls l.polls
  in
  { op; counters; layers; check; summary }

let workload = { name = "vanet_highway"; fixed_ops = 5; setup }
