module Pqueue = Dgs_util.Pqueue
module Registry = Dgs_metrics.Registry
module Names = Dgs_metrics.Names

(* One closure per event on a pairing heap keyed by [(time, seq)].  [seq]
   is a single monotonic counter that breaks same-time ties in insertion
   order. *)
type t = {
  agenda : (float * int, unit -> unit) Pqueue.t;
  m_schedule : Registry.Counter.t;
  m_fire : Registry.Counter.t;
  mutable clock : float;
  mutable seq : int;
  mutable fired : int;
}

let cmp (t1, i1) (t2, i2) =
  match Float.compare t1 t2 with 0 -> Int.compare i1 i2 | c -> c

let create ?(metrics = Registry.null) () =
  {
    agenda = Pqueue.create ~cmp;
    m_schedule = Registry.counter metrics Names.engine_schedule_total;
    m_fire = Registry.counter metrics Names.engine_fire_total;
    clock = 0.0;
    seq = 0;
    fired = 0;
  }

let now t = t.clock
let fired t = t.fired

let schedule_at t time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  Pqueue.add t.agenda (time, t.seq) f;
  t.seq <- t.seq + 1;
  Registry.Counter.incr t.m_schedule

let schedule_after t delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t (t.clock +. delay) f

let run_until t horizon =
  let due (time, _) = time <= horizon in
  let rec loop () =
    match Pqueue.pop_if t.agenda due with
    | None -> ()
    | Some ((time, _), f) ->
        t.clock <- time;
        t.fired <- t.fired + 1;
        Registry.Counter.incr t.m_fire;
        f ();
        loop ()
  in
  loop ();
  if horizon > t.clock then t.clock <- horizon
