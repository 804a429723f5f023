module Mobility = Dgs_mobility.Mobility
module Rounds = Dgs_sim.Rounds
module Sharded = Dgs_sim.Sharded
module Cfg = Dgs_spec.Configuration
module Incremental = Dgs_spec.Incremental
module Graph = Dgs_graph.Graph
module Rng = Dgs_util.Rng
open Dgs_core

type scenario = Highway | City

let scenario_name = function Highway -> "highway" | City -> "city"

let scenario_of_string = function
  | "highway" -> Some Highway
  | "city" -> Some City
  | _ -> None

(* Presets sized for a target mean degree of ~8 at the given radio range:
   on the highway the linear density n/length must be ~4/range; in the city
   the street grid's total length 2·b·(b+1)·block must likewise carry
   ~4/range nodes per unit. *)
let spec_of scenario ~n ~range ~speed =
  match scenario with
  | Highway ->
      let length = Float.max (8.0 *. range) (float_of_int n *. range /. 4.0) in
      Mobility.Highway
        {
          lanes = 6;
          lane_gap = 0.15 *. range;
          length;
          vmin = 0.8 *. speed;
          vmax = 1.2 *. speed;
          bidirectional = true;
        }
  | City ->
      let b =
        max 2 (int_of_float (Float.round (sqrt (float_of_int n /. 8.0))))
      in
      Mobility.Manhattan { blocks_x = b; blocks_y = b; block = range; speed }

type report = {
  scenario : string;
  nodes : int;
  rounds : int;
  jobs : int;
  shards : int;
  messages : int;
  computes : int;
  oracle_polls : int;
  mean_degree : float;
  groups : int;
  agreement_ok : bool;
  safety_ok : bool;
  maximality_ok : bool;
  evictions : int;
  additions : int;
  oracle_stats : Incremental.stats;
}

let run ?(seed = 1) ?(dmax = 3) ?(range = 2.0) ?(speed = 0.15) ?(dt = 1.0)
    ?(jitter = 0.1) ?(warmup = 10) ?(rounds = 50) ?(oracle_every = 5) ?(jobs = 1) ?shards
    ?make_trace ?make_metrics ~scenario ~n () =
  let jobs = if jobs <= 0 then Dgs_parallel.Pool.default_jobs () else jobs in
  let shards = match shards with Some s -> max 1 s | None -> jobs in
  let rng = Rng.create seed in
  let spec = spec_of scenario ~n ~range ~speed in
  let mob = Mobility.create (Rng.split rng) ~n spec in
  let config = Config.make ~dmax () in
  (* Spatial partition from the initial placement: vehicles drift within
     their slab over a run of tens of rounds, so the boundary set stays
     thin without re-homing node state across domains. *)
  let shard_of =
    Sharded.spatial_partition ~shards ~range (Mobility.positions mob)
  in
  let t =
    Sharded.create ~config ~shards ~jobs ~seed ~shard_of ?make_trace ?make_metrics
      (Mobility.graph mob ~range)
  in
  Sharded.run ~jitter t warmup;
  let inc = Incremental.create ~dmax () in
  let snap = Harness.Snapshotter.create () in
  let snapshot g =
    Harness.Snapshotter.snapshot_views snap ~ids:(Sharded.node_ids t)
      ~view:(fun v -> Grp_node.view (Sharded.node t v))
      g
  in
  let messages0 = Sharded.messages_sent t in
  let oracle_polls = ref 0
  and computes = ref 0
  and evictions = ref 0
  and additions = ref 0 in
  let agreement_ok = ref true
  and safety_ok = ref true
  and maximality_ok = ref true in
  let poll g =
    let v = Incremental.check inc (snapshot g) in
    agreement_ok := v.Incremental.agreement = None;
    safety_ok := v.Incremental.safety = None;
    maximality_ok := v.Incremental.maximality = None;
    incr oracle_polls
  in
  for round = 1 to rounds do
    Mobility.step mob ~dt;
    let g = Mobility.graph mob ~range in
    Sharded.set_graph t g;
    Node_id.Map.iter
      (fun v i ->
        incr computes;
        let removed = Node_id.Set.cardinal i.Grp_node.view_removed in
        let added = Node_id.Set.cardinal i.Grp_node.view_added in
        evictions := !evictions + removed;
        additions := !additions + added;
        if removed > 0 || added > 0 then Incremental.mark_dirty inc v)
      (Sharded.round ~jitter t);
    if round mod oracle_every = 0 then poll g
  done;
  let g = Sharded.graph t in
  (* The verdicts describe the last configuration: poll it unless the
     loop just did, which it never has when no round was measured. *)
  if rounds = 0 || rounds mod oracle_every <> 0 then poll g;
  let final_c = snapshot g in
  {
    scenario = scenario_name scenario;
    nodes = n;
    rounds;
    jobs;
    shards;
    messages = Sharded.messages_sent t - messages0;
    computes = !computes;
    oracle_polls = !oracle_polls;
    mean_degree =
      (if n = 0 then 0.0 else 2.0 *. float_of_int (Graph.edge_count g) /. float_of_int n);
    groups = List.length (Cfg.groups final_c);
    agreement_ok = !agreement_ok;
    safety_ok = !safety_ok;
    maximality_ok = !maximality_ok;
    evictions = !evictions;
    additions = !additions;
    oracle_stats = Incremental.stats inc;
  }

let pp_report ppf r =
  let s = r.oracle_stats in
  Format.fprintf ppf
    "@[<v>vanet %s: n=%d rounds=%d jobs=%d shards=%d@,\
     work: %d messages, %d computes@,\
     topology: mean degree %.1f, %d groups@,\
     final verdicts: agreement=%b safety=%b maximality=%b (evictions %d, additions %d)@,\
     oracle cache: %d polls, %d dirtied, %d agreements, %d omegas, %d diameters, \
     %d pair checks@]"
    r.scenario r.nodes r.rounds r.jobs r.shards r.messages r.computes r.mean_degree
    r.groups r.agreement_ok r.safety_ok r.maximality_ok r.evictions r.additions
    s.Incremental.polls s.Incremental.dirtied s.Incremental.agreements_checked
    s.Incremental.omegas_computed s.Incremental.diameters_computed
    s.Incremental.pairs_checked
