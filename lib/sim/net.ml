module Graph = Dgs_graph.Graph
module Rng = Dgs_util.Rng
module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
module Names = Dgs_metrics.Names
open Dgs_core

let tau_c = 1.0
let tau_s = 0.4

(* Per-copy delivery delay, uniform in [delay_min, delay_max]. *)
let delay_min = 0.001
let delay_max = 0.01

type stats = {
  computes : int;
  view_removals : int;
  broadcasts : int;
  deliveries : int;
  losses : int;
  drops : int;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  (* Loss and delay draws, decided at send time. *)
  chan_rng : Rng.t;
  (* Corruption draws and byte mutations, decided at delivery time. *)
  corrupt_rng : Rng.t;
  config : Config.t;
  trace : Trace.t;
  metrics : Registry.t;
  topology : unit -> Graph.t;
  nodes : Grp_node.t Node_id.Tbl.t;
  active : unit Node_id.Tbl.t;
  (* Liveness generation of each installed node's timers.  A timer callback
     captures the generation current when it was scheduled and dies silently
     when the node's generation has moved on — deactivation and removal bump
     it, so stale timers fire at most once more instead of rescheduling
     forever (the pre-fix leak: a deactivated node kept burning two engine
     events per period indefinitely).  Generations are globally unique so a
     remove/add cycle can never resurrect an old timer. *)
  gens : int Node_id.Tbl.t;
  mutable next_gen : int;
  (* Per-source broadcast counters backing lineage-id minting.  Touched
     only in the trace-enabled branch of [broadcast]: an untraced run
     never reads or writes it, so the table stays empty. *)
  lids : (Node_id.t, int) Hashtbl.t;
  mutable loss : float;
  mutable corruption : float;
  mutable computes : int;
  mutable view_removals : int;
  mutable broadcasts : int;
  mutable deliveries : int;
  mutable losses : int;
  mutable drops : int;
  mutable observer :
    (time:float -> Grp_node.t -> Grp_node.step_info -> unit) option;
  m_broadcast : Registry.Counter.t;
  m_delivery : Registry.Counter.t;
  m_loss : Registry.Counter.t;
  m_drop : Registry.Counter.t;
  m_loss_rate : Registry.Gauge.t;
  m_delivery_ns : Registry.Timer.t;
}

let now t = Engine.now t.engine
let fired t = Engine.fired t.engine
let node t v = Node_id.Tbl.find t.nodes v
let node_ids t = Node_id.Tbl.fold (fun v _ acc -> v :: acc) t.nodes [] |> List.sort compare
let is_active t v = Node_id.Tbl.mem t.active v

let views t =
  List.fold_left
    (fun acc v ->
      if is_active t v then Node_id.Map.add v (Grp_node.view (node t v)) acc else acc)
    Node_id.Map.empty (node_ids t)

(* Whether the protocol consumes a copy arriving now: [false] (a drop)
   when the destination deactivated or was removed in flight, or when
   the frame was corrupted out of the wire grammar.  With corruption
   enabled every copy goes through the wire format; a frame mutated
   into validity reaches the protocol and is handled by its own
   checks. *)
let consume t ~dst ~lid msg =
  match Node_id.Tbl.find_opt t.nodes dst with
  | Some n when is_active t dst ->
      if t.corruption > 0.0 && Rng.bernoulli t.corrupt_rng t.corruption then begin
        match Wire.of_string (Wire.corrupt t.corrupt_rng (Wire.to_string msg)) with
        | Some msg' ->
            Grp_node.receive_lid n ~lid msg';
            true
        | None -> false
      end
      else begin
        Grp_node.receive_lid n ~lid msg;
        true
      end
  | _ -> false

(* Fire one directed copy; only copies the protocol consumed count as
   deliveries, so [deliveries] agrees with what [Grp_node.receive] saw. *)
let deliver_copy t ~src ~dst ~lid msg =
  let m_t0 = Registry.Timer.start t.m_delivery_ns in
  let accepted = consume t ~dst ~lid msg in
  Registry.Timer.stop t.m_delivery_ns m_t0;
  if accepted then begin
    t.deliveries <- t.deliveries + 1;
    Registry.Counter.incr t.m_delivery
  end
  else begin
    t.drops <- t.drops + 1;
    Registry.Counter.incr t.m_drop
  end;
  if Trace.enabled t.trace then begin
    Trace.set_time t.trace (now t);
    Trace.emit t.trace
      (if accepted then Trace.Msg_delivered { src; dst; cause = lid }
       else Trace.Msg_dropped { src; dst; cause = lid })
  end

(* One copy per current neighbour, in ascending id order; loss and delay
   are drawn now, so a copy in flight survives a later link break or
   loss-rate change (DESIGN.md Section 5 item 18). *)
let broadcast t src msg =
  t.broadcasts <- t.broadcasts + 1;
  Registry.Counter.incr t.m_broadcast;
  let lid =
    if Trace.enabled t.trace then begin
      let lid = Trace.mint_lid t.lids ~src in
      Trace.set_time t.trace (now t);
      Trace.emit t.trace (Trace.Msg_sent { src; lid });
      lid
    end
    else -1
  in
  Graph.Int_set.iter
    (fun dst ->
      if Rng.bernoulli t.chan_rng t.loss then begin
        t.losses <- t.losses + 1;
        Registry.Counter.incr t.m_loss;
        if Trace.enabled t.trace then
          Trace.emit t.trace (Trace.Msg_lost { src; dst; cause = lid })
      end
      else
        Engine.schedule_after t.engine
          (Rng.float_in t.chan_rng delay_min delay_max)
          (fun () -> deliver_copy t ~src ~dst ~lid msg))
    (Graph.neighbors (t.topology ()) src)

let fresh_gen t =
  let g = t.next_gen in
  t.next_gen <- g + 1;
  g

let gen_live t v gen =
  match Node_id.Tbl.find_opt t.gens v with Some g -> g = gen | None -> false

(* Timers only run for active nodes: a live generation implies the node has
   neither been deactivated nor removed since the timer chain was started
   (both bump the generation), and chains are only started at install and
   reactivation. *)
let rec schedule_compute t v gen delay =
  Engine.schedule_after t.engine delay (fun () ->
      if gen_live t v gen && is_active t v then begin
        let n = node t v in
        if Trace.enabled t.trace then
          Trace.set_time t.trace (now t);
        let info = Grp_node.compute n in
        t.computes <- t.computes + 1;
        t.view_removals <-
          t.view_removals + Node_id.Set.cardinal info.Grp_node.view_removed;
        (match t.observer with
        | Some f -> f ~time:(now t) n info
        | None -> ());
        schedule_compute t v gen tau_c
      end)

let rec schedule_send t v gen delay =
  Engine.schedule_after t.engine delay (fun () ->
      if gen_live t v gen && is_active t v then begin
        broadcast t v (Grp_node.make_message (node t v));
        schedule_send t v gen tau_s
      end)

let start_timers t v =
  let gen = fresh_gen t in
  Node_id.Tbl.replace t.gens v gen;
  schedule_compute t v gen (Rng.float t.rng tau_c);
  schedule_send t v gen (Rng.float t.rng tau_s)

let install_node t v =
  Node_id.Tbl.replace t.nodes v
    (Grp_node.create ~config:t.config ~trace:t.trace ~metrics:t.metrics v);
  Node_id.Tbl.replace t.active v ();
  start_timers t v

let create ~rng ~config ?(loss = 0.0) ?(corruption = 0.0) ?(trace = Trace.null)
    ?(metrics = Registry.null) ~topology ~nodes () =
  Rng.check_rate "Net.create: loss" loss;
  Rng.check_rate "Net.create: corruption" corruption;
  (* Stream order: corruption, then channel, then [rng] itself for the
     timer phases. *)
  let corrupt_rng = Rng.split rng in
  let chan_rng = Rng.split rng in
  let m_loss_rate = Registry.gauge metrics Names.medium_loss_rate in
  Registry.Gauge.set m_loss_rate loss;
  let t =
    {
      engine = Engine.create ~metrics ();
      rng;
      chan_rng;
      corrupt_rng;
      config;
      trace;
      metrics;
      topology;
      nodes = Node_id.Tbl.create 64;
      active = Node_id.Tbl.create 64;
      gens = Node_id.Tbl.create 64;
      next_gen = 0;
      lids = Hashtbl.create 64;
      loss;
      corruption;
      computes = 0;
      view_removals = 0;
      broadcasts = 0;
      deliveries = 0;
      losses = 0;
      drops = 0;
      observer = None;
      m_broadcast = Registry.counter metrics Names.medium_broadcast_total;
      m_delivery = Registry.counter metrics Names.medium_delivery_total;
      m_loss = Registry.counter metrics Names.medium_loss_total;
      m_drop = Registry.counter metrics Names.medium_drop_total;
      m_loss_rate;
      m_delivery_ns = Registry.timer metrics Names.medium_delivery_ns;
    }
  in
  List.iter (install_node t) nodes;
  t

let run_until t horizon = Engine.run_until t.engine horizon

let deactivate t v =
  if Node_id.Tbl.mem t.active v then begin
    Node_id.Tbl.remove t.active v;
    (* Bump to a generation no timer carries: the node's pending timers
       fire at most once more as no-ops and stop rescheduling. *)
    Node_id.Tbl.replace t.gens v (fresh_gen t)
  end

let activate t v =
  if Node_id.Tbl.mem t.nodes v && not (Node_id.Tbl.mem t.active v) then begin
    Node_id.Tbl.replace t.active v ();
    start_timers t v
  end

let reset_node t v =
  if Node_id.Tbl.mem t.nodes v then
    Node_id.Tbl.replace t.nodes v
      (Grp_node.create ~config:t.config ~trace:t.trace ~metrics:t.metrics v)

let add_node t v = if not (Node_id.Tbl.mem t.nodes v) then install_node t v

let remove_node t v =
  Node_id.Tbl.remove t.nodes v;
  Node_id.Tbl.remove t.active v;
  Node_id.Tbl.remove t.gens v

let set_loss t p =
  Rng.check_rate "Net.set_loss: rate" p;
  Registry.Gauge.set t.m_loss_rate p;
  t.loss <- p

let set_corruption t p =
  Rng.check_rate "Net.set_corruption: rate" p;
  t.corruption <- p

let loss t = t.loss
let corruption t = t.corruption
let on_step t f = t.observer <- Some f

let stats t =
  {
    computes = t.computes;
    view_removals = t.view_removals;
    broadcasts = t.broadcasts;
    deliveries = t.deliveries;
    losses = t.losses;
    drops = t.drops;
  }

let state_signature t =
  Node_id.Tbl.fold (fun v () acc -> v :: acc) t.active []
  |> List.sort Int.compare
  |> List.map (fun v -> Grp_node.state (node t v))
