module Rng = Dgs_util.Rng
module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
module Names = Dgs_metrics.Names

type stats = { broadcasts : int; deliveries : int; losses : int; drops : int }

type 'msg t = {
  engine : Engine.t;
  rng : Rng.t;
  trace : Trace.t;
  mutable loss : float;
  delay_min : float;
  delay_max : float;
  audience : int -> int list;
  deliver : dst:int -> lid:int -> 'msg -> bool;
  (* Per-source broadcast counters backing lineage-id minting.  Touched
     only in the trace-enabled branch of [broadcast]: an untraced run
     never reads or writes it, so the table stays empty and the hot path
     stays allocation-free. *)
  lids : (int, int) Hashtbl.t;
  mutable broadcasts : int;
  mutable deliveries : int;
  mutable losses : int;
  mutable drops : int;
  m_broadcast : Registry.Counter.t;
  m_delivery : Registry.Counter.t;
  m_loss : Registry.Counter.t;
  m_drop : Registry.Counter.t;
  m_loss_rate : Registry.Gauge.t;
  m_delivery_ns : Registry.Timer.t;
}

(* Fire one directed copy.  The runtime decides now whether the protocol
   actually sees the copy (destination may have deactivated or been
   removed in flight, or the frame may be corrupted out of the grammar);
   only copies it accepts count as deliveries, so [deliveries] agrees
   with what [Grp_node.receive] saw. *)
let deliver_copy t ~src ~dst ~lid msg =
  let m_t0 = Registry.Timer.start t.m_delivery_ns in
  let accepted = t.deliver ~dst ~lid msg in
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
    Trace.set_time t.trace (Engine.now t.engine);
    Trace.emit t.trace
      (if accepted then Trace.Msg_delivered { src; dst; cause = lid }
       else Trace.Msg_dropped { src; dst; cause = lid })
  end

let create ~engine ~rng ?(loss = 0.0) ?(delay_min = 0.001) ?(delay_max = 0.01)
    ?(trace = Trace.null) ?(metrics = Registry.null) ~audience ~deliver () =
  if loss < 0.0 || loss > 1.0 then invalid_arg "Medium.create: loss out of [0,1]";
  if delay_min < 0.0 || delay_max < delay_min then
    invalid_arg "Medium.create: bad delay bounds";
  let m_loss_rate = Registry.gauge metrics Names.medium_loss_rate in
  Registry.Gauge.set m_loss_rate loss;
  {
    engine;
    rng;
    trace;
    loss;
    delay_min;
    delay_max;
    audience;
    deliver;
    broadcasts = 0;
    deliveries = 0;
    losses = 0;
    drops = 0;
    lids = Hashtbl.create 64;
    m_broadcast = Registry.counter metrics Names.medium_broadcast_total;
    m_delivery = Registry.counter metrics Names.medium_delivery_total;
    m_loss = Registry.counter metrics Names.medium_loss_total;
    m_drop = Registry.counter metrics Names.medium_drop_total;
    m_loss_rate;
    m_delivery_ns = Registry.timer metrics Names.medium_delivery_ns;
  }

let broadcast t ~src msg =
  t.broadcasts <- t.broadcasts + 1;
  Registry.Counter.incr t.m_broadcast;
  let lid =
    if Trace.enabled t.trace then begin
      let lid = Trace.mint_lid t.lids ~src in
      Trace.set_time t.trace (Engine.now t.engine);
      Trace.emit t.trace (Trace.Msg_sent { src; lid });
      lid
    end
    else -1
  in
  List.iter
    (fun dst ->
      if dst <> src then
        if Rng.bernoulli t.rng t.loss then begin
          t.losses <- t.losses + 1;
          Registry.Counter.incr t.m_loss;
          if Trace.enabled t.trace then
            Trace.emit t.trace (Trace.Msg_lost { src; dst; cause = lid })
        end
        else begin
          let delay = Rng.float_in t.rng t.delay_min t.delay_max in
          Engine.schedule_after t.engine delay (fun () ->
              deliver_copy t ~src ~dst ~lid msg)
        end)
    (t.audience src);
  lid

let set_loss t loss =
  if loss < 0.0 || loss > 1.0 then invalid_arg "Medium.set_loss: loss out of [0,1]";
  Registry.Gauge.set t.m_loss_rate loss;
  t.loss <- loss

let stats t =
  {
    broadcasts = t.broadcasts;
    deliveries = t.deliveries;
    losses = t.losses;
    drops = t.drops;
  }
