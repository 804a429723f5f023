module Graph = Dgs_graph.Graph
module Rng = Dgs_util.Rng
module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
open Dgs_core

type t = {
  config : Config.t;
  trace : Trace.t;
  metrics : Registry.t;
  mutable graph : Graph.t;
  nodes : Grp_node.t Node_id.Tbl.t;
  (* Per-source send counters backing lineage-id minting, touched only
     when tracing is enabled (the Net discipline). *)
  lids : (Node_id.t, int) Hashtbl.t;
  mutable sent : int;
  mutable round_no : int;
}

let ensure_node t v =
  if not (Node_id.Tbl.mem t.nodes v) then
    Node_id.Tbl.replace t.nodes v
      (Grp_node.create ~config:t.config ~trace:t.trace ~metrics:t.metrics v)

let create ~config ?(trace = Trace.null) ?(metrics = Registry.null) graph =
  let t =
    {
      config;
      trace;
      metrics;
      graph;
      nodes = Node_id.Tbl.create 64;
      lids = Hashtbl.create 64;
      sent = 0;
      round_no = 0;
    }
  in
  List.iter (ensure_node t) (Graph.nodes graph);
  t

let config t = t.config
let graph t = t.graph

let set_graph t g =
  t.graph <- g;
  List.iter (ensure_node t) (Graph.nodes g)

let node t v = Node_id.Tbl.find t.nodes v
let node_ids t = Graph.nodes t.graph

let views t =
  List.fold_left
    (fun acc v -> Node_id.Map.add v (Grp_node.view (node t v)) acc)
    Node_id.Map.empty (node_ids t)

let round ?(loss = 0.0) ?(jitter = 0.0) ?(corruption = 0.0) ?(sends = 1) ?rng t =
  if sends < 1 then invalid_arg "Rounds.round: sends must be >= 1";
  Rng.check_rate "Rounds.round: loss" loss;
  Rng.check_rate "Rounds.round: jitter" jitter;
  Rng.check_rate "Rounds.round: corruption" corruption;
  let tracing = Trace.enabled t.trace in
  t.round_no <- t.round_no + 1;
  if tracing then Trace.set_time t.trace (float_of_int t.round_no);
  let ids = node_ids t in
  let outgoing = List.map (fun v -> (v, Grp_node.make_message (node t v))) ids in
  let draw what p =
    match rng with
    | None ->
        if p > 0.0 then invalid_arg ("Rounds.round: " ^ what ^ " > 0 requires an rng");
        false
    | Some r -> Rng.bernoulli r p
  in
  let deliver dst lid msg =
    if draw "corruption" corruption then begin
      (* The frame crosses the wire with one byte flipped: unparsable
         frames are lost, parsable ones reach the protocol as-is. *)
      match rng with
      | None -> ()
      | Some r -> (
          match Wire.of_string (Wire.corrupt r (Wire.to_string msg)) with
          | Some msg' -> Grp_node.receive_lid (node t dst) ~lid msg'
          | None -> ())
    end
    else Grp_node.receive_lid (node t dst) ~lid msg
  in
  (* [sends] transmissions per compute period model Ts <= Tc: under loss,
     a neighbor misses a whole period only when all of them are lost. *)
  for _ = 1 to sends do
    List.iter
      (fun (src, msg) ->
        (* Each of the [sends] transmissions is its own lineage. *)
        let lid = if tracing then Trace.mint_lid t.lids ~src else -1 in
        if tracing then Trace.emit t.trace (Trace.Msg_sent { src; lid });
        Graph.iter_neighbors t.graph src (fun dst ->
            t.sent <- t.sent + 1;
            if draw "loss" loss then begin
              if tracing then
                Trace.emit t.trace (Trace.Msg_lost { src; dst; cause = lid })
            end
            else begin
              if tracing then
                Trace.emit t.trace (Trace.Msg_delivered { src; dst; cause = lid });
              deliver dst lid msg
            end))
      outgoing
  done;
  List.fold_left
    (fun acc v ->
      if draw "jitter" jitter then acc
      else Node_id.Map.add v (Grp_node.compute (node t v)) acc)
    Node_id.Map.empty ids

let run ?loss ?jitter ?corruption ?sends ?rng t n =
  for _ = 1 to n do
    ignore (round ?loss ?jitter ?corruption ?sends ?rng t)
  done

let run_until_stable ?loss ?jitter ?corruption ?sends ?rng ?on_round
    ?(max_rounds = 10_000) t =
  let confirm = Grp_node.quiet_rounds t.config in
  let rec go rounds stable_streak previous =
    if stable_streak >= confirm then Some (rounds - stable_streak)
    else if rounds >= max_rounds then None
    else begin
      ignore (round ?loss ?jitter ?corruption ?sends ?rng t);
      (match on_round with Some f -> f (rounds + 1) | None -> ());
      let now = List.map (fun v -> Grp_node.state (node t v)) (node_ids t) in
      let streak =
        match previous with
        | Some p when List.equal Grp_node.same_state now p -> stable_streak + 1
        | _ -> 0
      in
      go (rounds + 1) streak (Some now)
    end
  in
  go 0 0 None

let messages_sent t = t.sent
