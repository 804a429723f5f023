module Graph = Dgs_graph.Graph
module Rng = Dgs_util.Rng
module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
module Pool = Dgs_parallel.Pool
module Spatial_grid = Dgs_util.Spatial_grid
module Geom = Dgs_util.Geom
open Dgs_core

(* One logical shard: its own engine, its own medium, the protocol nodes
   homed to it.  During the two parallel phases of a round a shard is
   touched by exactly one worker domain; between phases everything is
   published through Pool's Domain.join / Domain.spawn pair, so no field
   here needs synchronization. *)
type shard = {
  sx : int;
  engine : Message.t Engine.t;
  medium : Message.t Medium.t;
  nodes : (Node_id.t, Grp_node.t) Hashtbl.t;
  trace : Trace.t;
  metrics : Registry.t;
  (* Graph nodes homed here, sorted — the per-round iteration order. *)
  mutable locals : Node_id.t array;
  (* Boundary copies produced this round: (src, dst, lineage id, message),
     dst homed on another shard.  Drained by the barrier exchange; the
     lineage id rides along so cross-shard provenance survives. *)
  mutable outbox : (Node_id.t * Node_id.t * int * Message.t) list;
  mutable infos : (Node_id.t * Grp_node.step_info) list;
  mutable sent : int;
  (* Wall clock of this shard's last phase A / phase B, measured inside
     the worker (so excluding fork/join) — the per-shard lanes of the
     Perfetto export.  Written by the owning worker, read on the main
     thread after the join. *)
  mutable last_broadcast_s : float;
  mutable last_deliver_s : float;
}

type t = {
  config : Config.t;
  shards : shard array;
  jobs : int;
  delta : float;
  shard_of : Node_id.t -> int;
  (* Home shard of every node ever seen; written only on the main thread
     (create/set_graph), read freely during the parallel phases. *)
  home : (Node_id.t, int) Hashtbl.t;
  (* Per-node RNG streams, split from one master by node id, so every
     behavior-affecting draw (compute jitter) is a function of the node
     alone — never of the partition.  Each stream is advanced only by its
     node's home-shard worker. *)
  rngs : (Node_id.t, Rng.t) Hashtbl.t;
  node_master : Rng.t;
  mutable graph : Graph.t;
  mutable now : float;
  mutable barrier_s : float;
  (* Per-phase wall clock, measured on the main thread around each
     parallel phase (so they include fork/join overhead) — the profile
     lane's attribution of round time. *)
  mutable broadcast_s : float;
  mutable deliver_s : float;
}

let clamp_shard t sx = ((sx mod Array.length t.shards) + Array.length t.shards) mod Array.length t.shards

let ensure_node t v =
  if not (Hashtbl.mem t.home v) then begin
    let sx = clamp_shard t (t.shard_of v) in
    let sh = t.shards.(sx) in
    Hashtbl.replace t.home v sx;
    Hashtbl.replace t.rngs v (Rng.split_at t.node_master v);
    Hashtbl.replace sh.nodes v
      (Grp_node.create ~config:t.config ~trace:sh.trace ~metrics:sh.metrics v)
  end

let refresh_locals t =
  let buckets = Array.make (Array.length t.shards) [] in
  List.iter
    (fun v ->
      let sx = Hashtbl.find t.home v in
      buckets.(sx) <- v :: buckets.(sx))
    (Graph.nodes t.graph);
  Array.iteri
    (fun sx sh ->
      let a = Array.of_list buckets.(sx) in
      Array.sort compare a;
      sh.locals <- a)
    t.shards

let create ~config ?(shards = 1) ?(jobs = 1) ?(delta = 0.5) ?(seed = 1)
    ?shard_of ?make_trace ?make_metrics graph =
  if shards < 1 then invalid_arg "Sharded.create: shards must be >= 1";
  if not (delta > 0.0 && delta < 1.0) then
    invalid_arg "Sharded.create: delta must be in (0, 1)";
  let jobs = max 1 jobs in
  let root = Rng.create seed in
  let node_master = Rng.split_at root 0 in
  (* Per the tentpole contract each shard owns an RNG split by shard
     index.  It feeds the shard's medium, whose draws are semantically
     inert here (loss 0, delay_min = delay_max), so results stay a
     function of the node set alone — the partition-invariance the
     byte-identical [--jobs] contract rests on. *)
  let shard_master = Rng.split_at root 1 in
  let shard_of = match shard_of with Some f -> f | None -> fun v -> v mod shards in
  let t_ref = ref None in
  let make_shard sx =
    let trace = match make_trace with Some f -> f sx | None -> Trace.null in
    let metrics = match make_metrics with Some f -> f sx | None -> Registry.null in
    let engine = Engine.create ~trace ~metrics () in
    let nodes = Hashtbl.create 64 in
    let medium =
      Medium.create ~engine
        ~rng:(Rng.split_at shard_master sx)
        ~loss:0.0 ~delay_min:delta ~delay_max:delta ~trace ~metrics
        ~audience:(fun src ->
          (* Local neighbors only, in ascending order; boundary-crossing
             copies ride the outbox instead. *)
          match !t_ref with
          | None -> []
          | Some t ->
              Dgs_util.Int_set.fold
                (fun dst acc ->
                  if Hashtbl.find t.home dst = sx then dst :: acc else acc)
                (Graph.neighbors t.graph src) []
              |> List.rev)
        ~deliver:(fun ~dst ~lid msg ->
          (* find + Not_found rather than find_opt: this runs once per
             delivered copy and must not allocate a [Some]. *)
          match Hashtbl.find nodes dst with
          | node ->
              Grp_node.receive_lid node ~lid msg;
              true
          | exception Not_found -> false)
        ()
    in
    {
      sx;
      engine;
      medium;
      nodes;
      trace;
      metrics;
      locals = [||];
      outbox = [];
      infos = [];
      sent = 0;
      last_broadcast_s = 0.0;
      last_deliver_s = 0.0;
    }
  in
  let t =
    {
      config;
      shards = Array.init shards make_shard;
      jobs;
      delta;
      shard_of;
      home = Hashtbl.create 64;
      rngs = Hashtbl.create 64;
      node_master;
      graph;
      now = 0.0;
      barrier_s = 0.0;
      broadcast_s = 0.0;
      deliver_s = 0.0;
    }
  in
  t_ref := Some t;
  List.iter (ensure_node t) (Graph.nodes graph);
  refresh_locals t;
  t

let config t = t.config
let graph t = t.graph
let shard_count t = Array.length t.shards
let jobs t = t.jobs
let barrier_s t = t.barrier_s
let broadcast_s t = t.broadcast_s
let deliver_s t = t.deliver_s

let shard_phase_s t =
  Array.map (fun sh -> (sh.last_broadcast_s, sh.last_deliver_s)) t.shards

let set_graph t g =
  t.graph <- g;
  List.iter (ensure_node t) (Graph.nodes g);
  refresh_locals t;
  Array.iter
    (fun sh ->
      if Trace.enabled sh.trace then
        Trace.emit sh.trace
          (Trace.Topology_change
             { nodes = Graph.node_count g; edges = Graph.edge_count g }))
    t.shards

let node t v = Hashtbl.find t.shards.(Hashtbl.find t.home v).nodes v
let node_ids t = Graph.nodes t.graph

let views t =
  List.fold_left
    (fun acc v -> Node_id.Map.add v (Grp_node.view (node t v)) acc)
    Node_id.Map.empty (node_ids t)

let messages_sent t = Array.fold_left (fun acc sh -> acc + sh.sent) 0 t.shards

let medium_stats t =
  Array.fold_left
    (fun (acc : Medium.stats) sh ->
      let s = Medium.stats sh.medium in
      {
        Medium.broadcasts = acc.Medium.broadcasts + s.Medium.broadcasts;
        deliveries = acc.Medium.deliveries + s.Medium.deliveries;
        losses = acc.Medium.losses + s.Medium.losses;
        drops = acc.Medium.drops + s.Medium.drops;
      })
    { Medium.broadcasts = 0; deliveries = 0; losses = 0; drops = 0 }
    t.shards

(* Phase A (parallel): at the round tick every local node builds its
   message and broadcasts it — local copies are scheduled on the shard's
   own medium at [now + delta], boundary copies go to the outbox. *)
let phase_broadcast t sh =
  let t0 = Unix.gettimeofday () in
  Engine.run_until sh.engine t.now;
  Array.iter
    (fun v ->
      let msg = Grp_node.make_message (Hashtbl.find sh.nodes v) in
      let lid = Medium.broadcast sh.medium ~src:v msg in
      let deg = ref 0 in
      Graph.iter_neighbors t.graph v (fun dst ->
          incr deg;
          if Hashtbl.find t.home dst <> sh.sx then
            sh.outbox <- (v, dst, lid, msg) :: sh.outbox);
      sh.sent <- sh.sent + !deg)
    sh.locals;
  sh.last_broadcast_s <- Unix.gettimeofday () -. t0

(* Barrier (main thread): route every boundary copy to its destination
   shard and fix the injection order to ascending (src, dst) — the round
   tick is constant within a round, so this is the deterministic
   (tick, src, dst) merge order. *)
let exchange t =
  let t0 = Unix.gettimeofday () in
  let incoming = Array.make (Array.length t.shards) [] in
  Array.iter
    (fun sh ->
      List.iter
        (fun ((_, dst, _, _) as copy) ->
          let dx = Hashtbl.find t.home dst in
          incoming.(dx) <- copy :: incoming.(dx))
        sh.outbox;
      sh.outbox <- [])
    t.shards;
  let by_src_dst (s1, d1, _, _) (s2, d2, _, _) =
    match compare s1 s2 with 0 -> compare d1 d2 | c -> c
  in
  let incoming = Array.map (List.sort by_src_dst) incoming in
  t.barrier_s <- t.barrier_s +. (Unix.gettimeofday () -. t0);
  incoming

(* Phase B (parallel): inject the boundary copies, schedule the computes,
   and run the shard to [now + delta].  Engine seq order puts every
   delivery (local copies scheduled in phase A, injections scheduled
   first here) before every compute at the same tick, so a compute sees
   all of this round's messages — exactly the Rounds schedule. *)
let phase_deliver t jitter sh incoming =
  let t0 = Unix.gettimeofday () in
  let at = t.now +. t.delta in
  List.iter
    (fun (src, dst, lid, msg) -> Medium.inject sh.medium ~at ~src ~dst ~lid msg)
    incoming;
  Array.iter
    (fun v ->
      (* One jitter draw per node per round from the node's own stream —
         short-circuited at 0.0 so the streams advance identically
         whether jitter is off or absent. *)
      let skip = jitter > 0.0 && Rng.bernoulli (Hashtbl.find t.rngs v) jitter in
      if not skip then begin
        let node = Hashtbl.find sh.nodes v in
        ignore
          (Engine.schedule_at sh.engine at (fun () ->
               sh.infos <- (v, Grp_node.compute node) :: sh.infos))
      end)
    sh.locals;
  Engine.run_until sh.engine at;
  sh.last_deliver_s <- Unix.gettimeofday () -. t0

let round ?(jitter = 0.0) t =
  if jitter < 0.0 || jitter > 1.0 then
    invalid_arg "Sharded.round: jitter out of [0,1]";
  let n = Array.length t.shards in
  let t0 = Unix.gettimeofday () in
  ignore (Pool.map ~jobs:t.jobs n (fun sx -> phase_broadcast t t.shards.(sx)));
  t.broadcast_s <- t.broadcast_s +. (Unix.gettimeofday () -. t0);
  let incoming = exchange t in
  let t1 = Unix.gettimeofday () in
  ignore
    (Pool.map ~jobs:t.jobs n (fun sx ->
         phase_deliver t jitter t.shards.(sx) incoming.(sx)));
  t.deliver_s <- t.deliver_s +. (Unix.gettimeofday () -. t1);
  t.now <- t.now +. 1.0;
  Array.fold_left
    (fun acc sh ->
      let l = sh.infos in
      sh.infos <- [];
      List.fold_left (fun acc (v, i) -> Node_id.Map.add v i acc) acc l)
    Node_id.Map.empty t.shards

let run ?jitter t n =
  for _ = 1 to n do
    ignore (round ?jitter t)
  done

(* Cut the cell sequence, ordered along (cx, cy), into [shards] contiguous
   slabs of roughly equal node count.  Cutting at cell boundaries keeps
   each shard spatially compact, so only the nodes within one radio range
   of a cut produce boundary traffic. *)
let spatial_partition ~shards ~range positions =
  if shards < 1 then invalid_arg "Sharded.spatial_partition: shards must be >= 1";
  if not (Float.is_finite range && range > 0.0) then
    invalid_arg "Sharded.spatial_partition: range must be finite and positive";
  let n = Array.length positions in
  let grid = Spatial_grid.create ~cell:range () in
  let cell_of i = Spatial_grid.cell_coords grid positions.(i) in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (cell_of a, a) (cell_of b, b)) order;
  let assignment = Hashtbl.create (max 16 n) in
  let per_shard = float_of_int n /. float_of_int shards in
  let sx = ref 0 and taken = ref 0 in
  Array.iteri
    (fun rank i ->
      (* Advance to the next shard only at a cell boundary, once the
         current one has its share. *)
      if
        rank > 0
        && !sx < shards - 1
        && float_of_int !taken >= per_shard
        && cell_of i <> cell_of order.(rank - 1)
      then begin
        incr sx;
        taken := 0
      end;
      incr taken;
      Hashtbl.replace assignment i !sx)
    order;
  fun v ->
    match Hashtbl.find_opt assignment v with
    | Some sx -> sx
    | None -> 0
