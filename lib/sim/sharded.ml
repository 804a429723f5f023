module Graph = Dgs_graph.Graph
module Rng = Dgs_util.Rng
module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
module Pool = Dgs_parallel.Pool
module Spatial_grid = Dgs_util.Spatial_grid
module Geom = Dgs_util.Geom
open Dgs_core

(* [Deliver] is the copy as sent, so a channel that leaves a copy alone
   allocates nothing. *)
type fate = Lose | Drop | Deliver | Deliver_as of Message.t

(* One logical shard: the protocol nodes homed to it.  During the two
   parallel phases of a round a shard is touched by exactly one worker
   domain; between phases everything is published through Pool's
   Domain.join / Domain.spawn pair, so no field here needs
   synchronization. *)
type shard = {
  sx : int;
  nodes : Grp_node.t Node_id.Tbl.t;
  trace : Trace.t;
  metrics : Registry.t;
  (* Per-source send counters behind lineage-id minting, touched only when
     tracing.  A node only ever broadcasts on its home shard, so its ids
     do not depend on the partition. *)
  lids : (Node_id.t, int) Hashtbl.t;
  (* Graph nodes homed here, sorted — the broadcast and delivery order. *)
  mutable locals : Node_id.t array;
  (* The compute order: indices into [locals], breadth-first over the
     shard's own subgraph, so a compute mostly reads messages and lists
     its neighbours' computes just touched.  [act]: this round's [active]
     answer per [locals] entry, one byte each. *)
  mutable order : int array;
  mutable act : Bytes.t;
  (* This round's message of each [locals] entry, built in phase A and
     delivered to same-shard neighbours in phase B, and, when tracing,
     the lineage id of each of its transmissions: send [s] of entry [i]
     at [s * Array.length locals + i].  Both are dropped once
     delivered. *)
  mutable msgs : Message.t array;
  mutable msg_lids : int array;
  (* Boundary copies produced this round: (src, dst, lineage id, message),
     dst homed on another shard.  Drained by the barrier exchange; the
     lineage id rides along so cross-shard provenance survives. *)
  mutable outbox : (Node_id.t * Node_id.t * int * Message.t) list;
  mutable infos : (Node_id.t * Grp_node.step_info) list;
  mutable sent : int;
}

type t = {
  config : Config.t;
  shards : shard array;
  jobs : int;
  shard_of : Node_id.t -> int;
  (* Home shard of every node ever seen; written only on the main thread
     (create/set_graph), read freely during the parallel phases. *)
  home : int Node_id.Tbl.t;
  (* Per-node RNG streams, split from one master by node id, so every
     behavior-affecting draw (compute jitter) is a function of the node
     alone — never of the partition.  Each stream is advanced only by its
     node's home-shard worker. *)
  rngs : Rng.t Node_id.Tbl.t;
  node_master : Rng.t;
  mutable graph : Graph.t;
  (* Rounds run so far: round r stamps every event it traces with r. *)
  mutable round_no : int;
  mutable barrier_s : float;
  (* Per-phase wall clock, measured on the main thread around each
     parallel phase (so they include fork/join overhead) — perfbench's
     sim.* attribution of round time. *)
  mutable broadcast_s : float;
  mutable deliver_s : float;
}

let clamp_shard t sx = ((sx mod Array.length t.shards) + Array.length t.shards) mod Array.length t.shards

let ensure_node t v =
  if not (Node_id.Tbl.mem t.home v) then begin
    let sx = clamp_shard t (t.shard_of v) in
    let sh = t.shards.(sx) in
    Node_id.Tbl.replace t.home v sx;
    Node_id.Tbl.replace t.rngs v (Rng.split_at t.node_master v);
    Node_id.Tbl.replace sh.nodes v
      (Grp_node.create ~config:t.config ~trace:sh.trace ~metrics:sh.metrics v)
  end

(* Index of [v] in the sorted [locals], or -1 when it is not homed here. *)
let local_index (locals : Node_id.t array) v =
  let lo = ref 0 and hi = ref (Array.length locals) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if locals.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length locals && locals.(!lo) = v then !lo else -1

(* Breadth-first over the subgraph of [locals]: each tree from the
   smallest unvisited id, neighbours ascending, boundary neighbours
   skipped.  [order] is its own queue and the one visitor is built once,
   so a visit allocates nothing. *)
let bfs_order g locals =
  let n = Array.length locals in
  let order = Array.make n 0 and seen = Array.make n false and tail = ref 0 in
  let visit u =
    let j = local_index locals u in
    if j >= 0 && not seen.(j) then begin
      seen.(j) <- true;
      order.(!tail) <- j;
      incr tail
    end
  in
  for root = 0 to n - 1 do
    if not seen.(root) then begin
      let head = ref !tail in
      visit locals.(root);
      while !head < !tail do
        Graph.iter_neighbors g locals.(order.(!head)) visit;
        incr head
      done
    end
  done;
  order

let refresh_locals t =
  let buckets = Array.make (Array.length t.shards) [] in
  List.iter
    (fun v ->
      let sx = Node_id.Tbl.find t.home v in
      buckets.(sx) <- v :: buckets.(sx))
    (Graph.nodes t.graph);
  Array.iteri
    (fun sx sh ->
      let a = Array.of_list buckets.(sx) in
      Array.sort Int.compare a;
      sh.locals <- a;
      sh.order <- bfs_order t.graph a;
      sh.act <- Bytes.make (Array.length a) '\000')
    t.shards

let create ~config ?(shards = 1) ?(jobs = 1) ?(seed = 1) ?shard_of ?make_trace
    ?make_metrics graph =
  if shards < 1 then invalid_arg "Sharded.create: shards must be >= 1";
  let node_master = Rng.split_at (Rng.create seed) 0 in
  let shard_of = match shard_of with Some f -> f | None -> fun v -> v mod shards in
  let make_shard sx =
    {
      sx;
      nodes = Node_id.Tbl.create 64;
      trace = (match make_trace with Some f -> f sx | None -> Trace.null);
      metrics = (match make_metrics with Some f -> f sx | None -> Registry.null);
      lids = Hashtbl.create 64;
      locals = [||];
      order = [||];
      act = Bytes.empty;
      msgs = [||];
      msg_lids = [||];
      outbox = [];
      infos = [];
      sent = 0;
    }
  in
  let t =
    {
      config;
      shards = Array.init shards make_shard;
      jobs = max 1 jobs;
      shard_of;
      home = Node_id.Tbl.create 64;
      rngs = Node_id.Tbl.create 64;
      node_master;
      graph;
      round_no = 0;
      barrier_s = 0.0;
      broadcast_s = 0.0;
      deliver_s = 0.0;
    }
  in
  List.iter (ensure_node t) (Graph.nodes graph);
  refresh_locals t;
  t

let config t = t.config
let graph t = t.graph
let barrier_s t = t.barrier_s
let broadcast_s t = t.broadcast_s
let deliver_s t = t.deliver_s

let set_graph t g =
  t.graph <- g;
  List.iter (ensure_node t) (Graph.nodes g);
  refresh_locals t

let node t v = Node_id.Tbl.find t.shards.(Node_id.Tbl.find t.home v).nodes v
let node_ids t = Graph.nodes t.graph

let views t =
  List.fold_left
    (fun acc v -> Node_id.Map.add v (Grp_node.view (node t v)) acc)
    Node_id.Map.empty (node_ids t)

let messages_sent t = Array.fold_left (fun acc sh -> acc + sh.sent) 0 t.shards

(* Phase A (parallel): every local node builds its message and mints
   one lineage id per transmission; copies to neighbours homed on another
   shard go to the outbox (one transmission when there are several
   shards). *)
let phase_broadcast t ~sends sh =
  let tracing = Trace.enabled sh.trace and n = Array.length sh.locals in
  if tracing then Trace.set_time sh.trace (float_of_int t.round_no);
  if tracing then sh.msg_lids <- Array.make (sends * n) (-1);
  sh.msgs <-
    Array.mapi
      (fun i v ->
        let msg = Grp_node.make_message (Node_id.Tbl.find sh.nodes v) in
        if tracing then
          for s = 0 to sends - 1 do
            let lid = Trace.mint_lid sh.lids ~src:v in
            sh.msg_lids.((s * n) + i) <- lid;
            Trace.emit sh.trace (Trace.Msg_sent { src = v; lid })
          done;
        Graph.iter_neighbors t.graph v (fun dst ->
            sh.sent <- sh.sent + sends;
            if Node_id.Tbl.find t.home dst <> sh.sx then
              sh.outbox <-
                (v, dst, (if tracing then sh.msg_lids.(i) else -1), msg) :: sh.outbox);
        msg)
      sh.locals

(* Barrier (main thread): route every boundary copy to its destination
   shard and fix the delivery order to ascending (src, dst) — the
   deterministic merge order of the [--jobs] contract. *)
let exchange t =
  let t0 = Unix.gettimeofday () in
  let incoming = Array.make (Array.length t.shards) [] in
  Array.iter
    (fun sh ->
      List.iter
        (fun ((_, dst, _, _) as copy) ->
          let dx = Node_id.Tbl.find t.home dst in
          incoming.(dx) <- copy :: incoming.(dx))
        sh.outbox;
      sh.outbox <- [])
    t.shards;
  let by_src_dst (s1, d1, _, _) (s2, d2, _, _) =
    match Int.compare s1 s2 with 0 -> Int.compare d1 d2 | c -> c
  in
  let incoming = Array.map (List.sort by_src_dst) incoming in
  t.barrier_s <- t.barrier_s +. (Unix.gettimeofday () -. t0);
  incoming

(* Phase B (parallel): deliver the local copies (transmissions, then
   sources, then neighbours ascending), each through [channel] when there
   is one, then the sorted boundary copies; ask [active] of every local
   node in id order, then run the active nodes' computes in [order] — so
   a compute sees all of this round's messages, and a caller's draws in
   [active] do not depend on the compute order. *)
let phase_deliver t ~sends ~channel ~active sh incoming =
  let tracing = Trace.enabled sh.trace and n = Array.length sh.locals in
  let deliver src dst lid msg =
    Grp_node.receive_lid (Node_id.Tbl.find sh.nodes dst) ~lid msg;
    if tracing then Trace.emit sh.trace (Trace.Msg_delivered { src; dst; cause = lid })
  in
  for s = 0 to sends - 1 do
    Array.iteri
      (fun i src ->
        let lid = if tracing then sh.msg_lids.((s * n) + i) else -1 and msg = sh.msgs.(i) in
        Graph.iter_neighbors t.graph src (fun dst ->
            if Node_id.Tbl.find t.home dst = sh.sx then
              match channel with
              | None -> deliver src dst lid msg
              | Some ch -> (
                  match ch msg with
                  | Deliver -> deliver src dst lid msg
                  | Deliver_as m -> deliver src dst lid m
                  | Lose ->
                      if tracing then
                        Trace.emit sh.trace (Trace.Msg_lost { src; dst; cause = lid })
                  | Drop ->
                      if tracing then
                        Trace.emit sh.trace (Trace.Msg_dropped { src; dst; cause = lid }))))
      sh.locals
  done;
  List.iter (fun (src, dst, lid, msg) -> deliver src dst lid msg) incoming;
  sh.msgs <- [||];
  sh.msg_lids <- [||];
  Array.iteri (fun i v -> Bytes.set sh.act i (if active v then '\001' else '\000')) sh.locals;
  Array.iter
    (fun i ->
      if Bytes.get sh.act i <> '\000' then begin
        let v = sh.locals.(i) in
        sh.infos <- (v, Grp_node.compute (Node_id.Tbl.find sh.nodes v)) :: sh.infos
      end)
    sh.order

let step ?(sends = 1) ?channel ~active t =
  let n = Array.length t.shards in
  if sends < 1 then invalid_arg "Sharded.step: sends must be >= 1";
  if n > 1 && (sends > 1 || Option.is_some channel) then
    invalid_arg "Sharded.step: a channel or sends > 1 needs a single shard";
  t.round_no <- t.round_no + 1;
  let t0 = Unix.gettimeofday () in
  ignore (Pool.map ~jobs:t.jobs n (fun sx -> phase_broadcast t ~sends t.shards.(sx)));
  t.broadcast_s <- t.broadcast_s +. (Unix.gettimeofday () -. t0);
  let incoming = exchange t in
  let t1 = Unix.gettimeofday () in
  ignore
    (Pool.map ~jobs:t.jobs n (fun sx ->
         phase_deliver t ~sends ~channel ~active t.shards.(sx) incoming.(sx)));
  t.deliver_s <- t.deliver_s +. (Unix.gettimeofday () -. t1);
  Array.fold_left
    (fun acc sh ->
      let l = sh.infos in
      sh.infos <- [];
      List.fold_left (fun acc (v, i) -> Node_id.Map.add v i acc) acc l)
    Node_id.Map.empty t.shards

let round ?(jitter = 0.0) t =
  Rng.check_rate "Sharded.round: jitter" jitter;
  (* One jitter draw per node per round from the node's own stream —
     short-circuited at 0.0 so the streams advance identically whether
     jitter is off or absent. *)
  step t ~active:(fun v ->
      not (jitter > 0.0 && Rng.bernoulli (Node_id.Tbl.find t.rngs v) jitter))

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
