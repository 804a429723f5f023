module Calendar = Dgs_util.Calendar
module Trace = Dgs_trace.Trace
module Registry = Dgs_metrics.Registry
module Names = Dgs_metrics.Names

type event_id = int

(* Events live in an arena of generation-stamped slots instead of
   closures tracked by live/cancelled hashtables: a slot is a set of
   parallel-array cells (payload, trace id, generation, state), the
   agenda queues the slot index, and an [event_id] handle packs the slot
   with the generation current at schedule time.  Cancellation is one
   bounds-checked generation compare plus a state write; a stale handle
   (the event fired, freeing the slot bumped the generation) simply
   misses.  Scheduling and firing a delivery allocates nothing once the
   arena and the calendar bucket have grown to the working set.

   Slot states.  A cancelled state remembers the payload kind so the
   skip path clears the right cell when reclaiming the slot. *)
let st_free = 0
let st_thunk = 1
let st_deliver = 2
let st_thunk_cancelled = 3
let st_deliver_cancelled = 4

let slot_bits = 21
let slot_mask = (1 lsl slot_bits) - 1
let pack ~slot ~gen = (gen lsl slot_bits) lor slot
let dummy_thunk () = ()

type 'msg t = {
  cal : Calendar.t;
  (* [Calendar.last_time]'s backing cell, read directly on the fire path:
     the cross-module float return would box once per fired event. *)
  cal_lt : float array;
  mutable cap : int;
  mutable hwm : int; (* next never-used slot; slots >= hwm are virgin *)
  mutable gen : int array;
  mutable st : int array;
  mutable ext : int array; (* monotonic trace id of the queued event *)
  mutable thunk : (unit -> unit) array;
  mutable d_src : int array;
  mutable d_dst : int array;
  mutable d_gen : int array; (* medium stats-window generation *)
  mutable d_lid : int array; (* provenance lineage id; -1 when tracing is off *)
  (* Delivery payloads; created (with [d_dummy]) on the first
     [schedule_deliver], because building a ['msg array] needs a fill
     value.  Freed slots are reset to the dummy so the arena never
     retains a delivered message. *)
  mutable d_msg : 'msg array;
  mutable d_dummy : 'msg array;
  mutable free : int array;
  mutable free_n : int;
  mutable on_deliver : src:int -> dst:int -> gen:int -> lid:int -> 'msg -> unit;
  trace : Trace.t;
  m_schedule : Registry.Counter.t;
  m_fire : Registry.Counter.t;
  m_cancel : Registry.Counter.t;
  (* One-element array rather than a mutable field: a mutable float in a
     mixed record is boxed, and the clock is written on every fire. *)
  clock : float array;
  mutable backlog : int;
  mutable fired : int;
  mutable next_seq : int;
  mutable next_id : int;
}

let create ?(start = 0.0) ?(trace = Trace.null) ?(metrics = Registry.null) () =
  let cap = 64 in
  let cal = Calendar.create () in
  {
    cal;
    cal_lt = Calendar.last_time_cell cal;
    cap;
    hwm = 0;
    gen = Array.make cap 0;
    st = Array.make cap st_free;
    ext = Array.make cap 0;
    thunk = Array.make cap dummy_thunk;
    d_src = Array.make cap 0;
    d_dst = Array.make cap 0;
    d_gen = Array.make cap 0;
    d_lid = Array.make cap (-1);
    d_msg = [||];
    d_dummy = [||];
    free = Array.make cap 0;
    free_n = 0;
    on_deliver =
      (fun ~src:_ ~dst:_ ~gen:_ ~lid:_ _ ->
        failwith "Engine: no delivery handler installed");
    trace;
    m_schedule = Registry.counter metrics Names.engine_schedule_total;
    m_fire = Registry.counter metrics Names.engine_fire_total;
    m_cancel = Registry.counter metrics Names.engine_cancel_total;
    clock = [| start |];
    backlog = 0;
    fired = 0;
    next_seq = 0;
    next_id = 0;
  }

let now t = t.clock.(0)
let trace t = t.trace
let set_deliver t f = t.on_deliver <- f

let grow t =
  let cap = t.cap in
  let ncap = 2 * cap in
  let g = Array.make ncap 0 in
  Array.blit t.gen 0 g 0 cap;
  t.gen <- g;
  let s = Array.make ncap st_free in
  Array.blit t.st 0 s 0 cap;
  t.st <- s;
  let e = Array.make ncap 0 in
  Array.blit t.ext 0 e 0 cap;
  t.ext <- e;
  let th = Array.make ncap dummy_thunk in
  Array.blit t.thunk 0 th 0 cap;
  t.thunk <- th;
  let ds = Array.make ncap 0 in
  Array.blit t.d_src 0 ds 0 cap;
  t.d_src <- ds;
  let dd = Array.make ncap 0 in
  Array.blit t.d_dst 0 dd 0 cap;
  t.d_dst <- dd;
  let dg = Array.make ncap 0 in
  Array.blit t.d_gen 0 dg 0 cap;
  t.d_gen <- dg;
  let dl = Array.make ncap (-1) in
  Array.blit t.d_lid 0 dl 0 cap;
  t.d_lid <- dl;
  if Array.length t.d_msg > 0 then begin
    let dm = Array.make ncap t.d_dummy.(0) in
    Array.blit t.d_msg 0 dm 0 cap;
    t.d_msg <- dm
  end;
  let f = Array.make ncap 0 in
  Array.blit t.free 0 f 0 t.free_n;
  t.free <- f;
  t.cap <- ncap

let alloc_slot t =
  if t.free_n > 0 then begin
    t.free_n <- t.free_n - 1;
    t.free.(t.free_n)
  end
  else begin
    if t.hwm = t.cap then grow t;
    let s = t.hwm in
    t.hwm <- s + 1;
    s
  end

let free_slot t slot ~deliver =
  t.gen.(slot) <- t.gen.(slot) + 1;
  t.st.(slot) <- st_free;
  if deliver then t.d_msg.(slot) <- t.d_dummy.(0)
  else t.thunk.(slot) <- dummy_thunk;
  t.free.(t.free_n) <- slot;
  t.free_n <- t.free_n + 1

(* Queue the slot and emit the schedule-side bookkeeping shared by both
   event kinds.  Trace ids are a separate monotonic counter, not the
   packed handle, so the trace stream is byte-identical to the closure
   engine's. *)
let enqueue t ~at slot =
  let ext = t.next_id in
  t.next_id <- ext + 1;
  t.ext.(slot) <- ext;
  Calendar.add t.cal ~time:at ~seq:t.next_seq slot;
  t.next_seq <- t.next_seq + 1;
  Registry.Counter.incr t.m_schedule;
  if Trace.enabled t.trace then
    Trace.emit t.trace (Trace.Event_scheduled { id = ext; at })

let schedule_at t time f =
  if time < t.clock.(0) then invalid_arg "Engine.schedule_at: time in the past";
  let slot = alloc_slot t in
  t.st.(slot) <- st_thunk;
  t.thunk.(slot) <- f;
  enqueue t ~at:time slot;
  pack ~slot ~gen:t.gen.(slot)

let schedule_after t delay f =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t (t.clock.(0) +. delay) f

let schedule_deliver t ~at ~src ~dst ~gen ~lid msg =
  if at < t.clock.(0) then invalid_arg "Engine.schedule_at: time in the past";
  let slot = alloc_slot t in
  if Array.length t.d_msg = 0 then begin
    t.d_msg <- Array.make t.cap msg;
    t.d_dummy <- [| msg |]
  end;
  t.st.(slot) <- st_deliver;
  t.d_src.(slot) <- src;
  t.d_dst.(slot) <- dst;
  t.d_gen.(slot) <- gen;
  t.d_lid.(slot) <- lid;
  t.d_msg.(slot) <- msg;
  enqueue t ~at slot

let cancel t id =
  let slot = id land slot_mask in
  if slot < t.cap && t.gen.(slot) = id lsr slot_bits then begin
    let st = t.st.(slot) in
    if st = st_thunk || st = st_deliver then begin
      t.st.(slot) <-
        (if st = st_thunk then st_thunk_cancelled else st_deliver_cancelled);
      t.backlog <- t.backlog + 1;
      Registry.Counter.incr t.m_cancel
    end
  end

let cancelled_backlog t = t.backlog
let fired t = t.fired
let pending t = Calendar.length t.cal

(* Consume one popped slot: reclaim a cancelled entry silently, or fire.
   The slot is freed {e before} the callback runs (its payload read into
   locals), matching the closure engine: cancelling your own event from
   inside its callback is a no-op, and the slot is immediately reusable
   by whatever the callback schedules. *)
let consume t slot =
  let st = t.st.(slot) in
  if st >= st_thunk_cancelled then begin
    t.backlog <- t.backlog - 1;
    free_slot t slot ~deliver:(st = st_deliver_cancelled);
    false
  end
  else begin
    t.clock.(0) <- t.cal_lt.(0);
    t.fired <- t.fired + 1;
    Registry.Counter.incr t.m_fire;
    if Trace.enabled t.trace then begin
      let time = t.clock.(0) in
      Trace.set_time t.trace time;
      Trace.emit t.trace (Trace.Event_fired { id = t.ext.(slot); at = time })
    end;
    if st = st_thunk then begin
      let f = t.thunk.(slot) in
      free_slot t slot ~deliver:false;
      f ()
    end
    else begin
      let src = t.d_src.(slot)
      and dst = t.d_dst.(slot)
      and gen = t.d_gen.(slot)
      and lid = t.d_lid.(slot)
      and msg = t.d_msg.(slot) in
      free_slot t slot ~deliver:true;
      t.on_deliver ~src ~dst ~gen ~lid msg
    end;
    true
  end

let rec step t =
  let slot = Calendar.pop_min t.cal in
  if slot < 0 then false else if consume t slot then true else step t

let rec drain_upto t horizon =
  (* [Calendar.pop_upto] never pops past the horizon, so a cancelled
     prefix can be skipped here without firing whatever lies beyond it. *)
  let slot = Calendar.pop_upto t.cal ~horizon in
  if slot >= 0 then begin
    ignore (consume t slot);
    drain_upto t horizon
  end

let run_until t horizon =
  drain_upto t horizon;
  if horizon > t.clock.(0) then t.clock.(0) <- horizon

let run_all t ~max_events =
  (* Cancelled pops count against the budget too: the guard bounds agenda
     work, and a long cancelled prefix is work — under the old fired-only
     accounting it was unbounded within any budget. *)
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < max_events do
    let slot = Calendar.pop_min t.cal in
    if slot < 0 then continue := false
    else begin
      ignore (consume t slot);
      incr n
    end
  done
