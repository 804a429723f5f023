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
  wall_s : float;
  messages : int;
  computes : int;
  events_per_s : float;
  node_steps_per_s : float;
  graph_build_s : float;
  set_graph_s : float;
  round_s : float;
  broadcast_s : float;
  deliver_s : float;
  oracle_s : float;
  barrier_s : float;
  oracle_polls : int;
  minor_words_per_round : float;
  major_words_per_round : float;
  promoted_words_per_round : float;
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
    ?make_trace ?make_metrics ?profile_out ~scenario ~n () =
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
  let barrier0 = Sharded.barrier_s t in
  let broadcast0 = Sharded.broadcast_s t in
  let deliver0 = Sharded.deliver_s t in
  let graph_build_s = ref 0.0
  and set_graph_s = ref 0.0
  and round_s = ref 0.0
  and oracle_s = ref 0.0
  and oracle_polls = ref 0
  and computes = ref 0
  and evictions = ref 0
  and additions = ref 0 in
  let agreement_ok = ref true
  and safety_ok = ref true
  and maximality_ok = ref true in
  let poll g =
    let t0 = Unix.gettimeofday () in
    let v = Incremental.check inc (snapshot g) in
    agreement_ok := v.Incremental.agreement = None;
    safety_ok := v.Incremental.safety = None;
    maximality_ok := v.Incremental.maximality = None;
    incr oracle_polls;
    oracle_s := !oracle_s +. (Unix.gettimeofday () -. t0)
  in
  let wall0 = Unix.gettimeofday () in
  let gc0 = Gc.quick_stat () in
  (* Perfetto span collection (--profile-out): one complete span per
     phase per round on lane 0, plus each shard's in-worker broadcast and
     deliver+compute spans on lane [shard + 1].  Timestamps are µs since
     the start of the measured window. *)
  let spans = ref [] in
  let profiling = profile_out <> None in
  let us since = (since -. wall0) *. 1e6 in
  let span name t_start t_end tid =
    spans :=
      {
        Dgs_trace.Chrome_trace.name;
        ts_us = us t_start;
        dur_us = (t_end -. t_start) *. 1e6;
        tid;
      }
      :: !spans
  in
  for round = 1 to rounds do
    Mobility.step mob ~dt;
    let t0 = Unix.gettimeofday () in
    let g = Mobility.graph mob ~range in
    let tg = Unix.gettimeofday () in
    graph_build_s := !graph_build_s +. (tg -. t0);
    if profiling then span "graph_build" t0 tg 0;
    let ts = Unix.gettimeofday () in
    Sharded.set_graph t g;
    let ts' = Unix.gettimeofday () in
    set_graph_s := !set_graph_s +. (ts' -. ts);
    if profiling then span "set_graph" ts ts' 0;
    let b0 = Sharded.broadcast_s t
    and bar0 = Sharded.barrier_s t
    and d0 = Sharded.deliver_s t in
    let t1 = Unix.gettimeofday () in
    let infos = Sharded.round ~jitter t in
    let t2 = Unix.gettimeofday () in
    round_s := !round_s +. (t2 -. t1);
    if profiling then begin
      (* The three legs of the round are sequential on the main thread:
         lay them end to end from the round's start. *)
      let b = Sharded.broadcast_s t -. b0
      and bar = Sharded.barrier_s t -. bar0
      and d = Sharded.deliver_s t -. d0 in
      span "broadcast" t1 (t1 +. b) 0;
      span "barrier" (t1 +. b) (t1 +. b +. bar) 0;
      span "deliver+compute" (t1 +. b +. bar) (t1 +. b +. bar +. d) 0;
      Array.iteri
        (fun sx (sb, sd) ->
          span "broadcast" t1 (t1 +. sb) (sx + 1);
          span "deliver+compute" (t1 +. b +. bar) (t1 +. b +. bar +. sd) (sx + 1))
        (Sharded.shard_phase_s t)
    end;
    Node_id.Map.iter
      (fun v i ->
        incr computes;
        let removed = Node_id.Set.cardinal i.Grp_node.view_removed in
        let added = Node_id.Set.cardinal i.Grp_node.view_added in
        evictions := !evictions + removed;
        additions := !additions + added;
        if removed > 0 || added > 0 then Incremental.mark_dirty inc v)
      infos;
    if round mod oracle_every = 0 then poll g
  done;
  let g = Sharded.graph t in
  (* The verdicts describe the last configuration: poll it unless the
     loop just did, which it never has when no round was measured. *)
  if rounds = 0 || rounds mod oracle_every <> 0 then poll g;
  let wall_s = Unix.gettimeofday () -. wall0 in
  let gc1 = Gc.quick_stat () in
  (match profile_out with
  | None -> ()
  | Some path ->
      let thread_names =
        (0, "round phases (main)")
        :: List.init shards (fun sx -> (sx + 1, Printf.sprintf "shard %d" sx))
      in
      Dgs_trace.Chrome_trace.write path ~thread_names (List.rev !spans));
  let per_round f = if rounds > 0 then f /. float_of_int rounds else 0.0 in
  let messages = Sharded.messages_sent t - messages0 in
  let events = messages + !computes in
  let final_c = snapshot g in
  {
    scenario = scenario_name scenario;
    nodes = n;
    rounds;
    jobs;
    shards;
    wall_s;
    messages;
    computes = !computes;
    events_per_s = (if wall_s > 0.0 then float_of_int events /. wall_s else 0.0);
    node_steps_per_s =
      (if wall_s > 0.0 then float_of_int (n * rounds) /. wall_s else 0.0);
    graph_build_s = !graph_build_s;
    set_graph_s = !set_graph_s;
    round_s = !round_s;
    broadcast_s = Sharded.broadcast_s t -. broadcast0;
    deliver_s = Sharded.deliver_s t -. deliver0;
    oracle_s = !oracle_s;
    barrier_s = Sharded.barrier_s t -. barrier0;
    oracle_polls = !oracle_polls;
    minor_words_per_round = per_round (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    major_words_per_round = per_round (gc1.Gc.major_words -. gc0.Gc.major_words);
    promoted_words_per_round =
      per_round (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
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
    "@[<v>vanet %s: n=%d rounds=%d jobs=%d shards=%d wall=%.2fs@,\
     throughput: %.0f events/s, %.0f node·steps/s (%d messages, %d computes)@,\
     time split: graph %.2fs, rounds %.2fs, oracle %.2fs over %d polls, barrier %.2fs@,\
     topology: mean degree %.1f, %d groups@,\
     final verdicts: agreement=%b safety=%b maximality=%b (evictions %d, additions %d)@,\
     oracle cache: %d polls, %d dirtied, %d agreements, %d omegas, %d diameters, \
     %d pair checks@]"
    r.scenario r.nodes r.rounds r.jobs r.shards r.wall_s r.events_per_s
    r.node_steps_per_s r.messages r.computes r.graph_build_s r.round_s r.oracle_s
    r.oracle_polls r.barrier_s r.mean_degree r.groups r.agreement_ok r.safety_ok
    r.maximality_ok r.evictions r.additions s.Incremental.polls s.Incremental.dirtied
    s.Incremental.agreements_checked s.Incremental.omegas_computed
    s.Incremental.diameters_computed s.Incremental.pairs_checked

let pp_profile ppf r =
  let mw w = w /. 1e6 in
  pp_report ppf r;
  Format.fprintf ppf
    "@.@[<v>round profile: set_graph %.2fs, broadcast %.2fs, barrier %.2fs, \
     deliver+compute %.2fs (round total %.2fs)@,\
     gc per round: minor %.2f Mwords, promoted %.2f Mwords, major %.2f Mwords \
     (main domain%s)@]"
    r.set_graph_s r.broadcast_s r.barrier_s r.deliver_s r.round_s
    (mw r.minor_words_per_round)
    (mw r.promoted_words_per_round)
    (mw r.major_words_per_round)
    (if r.jobs > 1 then "; workers not counted at jobs>1" else "")
