(** Discrete-event simulation engine.

    A single agenda of timestamped events; ties are broken by insertion
    order, which keeps runs deterministic for a fixed seed.  Time is a
    [float] in arbitrary "seconds".

    Events come in two kinds: {e thunks} (arbitrary callbacks — timers,
    computes) and {e deliveries} (typed [src/dst/gen/message] records
    dispatched to the handler installed with {!set_deliver}).  Deliveries
    are the hot path: they live in a generation-stamped slot arena and a
    same-timestamp calendar bucket, so scheduling and firing one
    allocates nothing once the arena has grown to the working set —
    where a closure per directed copy used to cost a heap allocation, two
    hashtable operations and an indirect call.  The ['msg] parameter is
    the delivery payload type; an engine used only for thunks leaves it
    unconstrained.

    When created with a trace sink the engine emits
    {!Dgs_trace.Trace.Event_scheduled} / [Event_fired] for every event
    (both kinds, ids from one monotonic counter — the stream is identical
    to the former closure-only engine's) and, more importantly, advances
    the sink's clock to the simulation time before each event runs — so
    everything a callback emits (deliveries, view changes, ...) is
    stamped with the correct simulation time. *)

type 'msg t

type event_id
(** Handle for cancellation (a slot index packed with the generation
    current at schedule time; firing the event retires the generation, so
    stale handles miss harmlessly). *)

val create :
  ?start:float ->
  ?trace:Dgs_trace.Trace.t ->
  ?metrics:Dgs_metrics.Registry.t ->
  unit ->
  'msg t
(** Fresh engine with an empty agenda; the clock starts at [start]
    (default [0.0]).  [trace] (default {!Dgs_trace.Trace.null}) receives
    the engine-level events and has its clock driven by the event loop.
    [metrics] (default {!Dgs_metrics.Registry.null}) receives
    [engine_schedule_total] / [engine_fire_total] / [engine_cancel_total]
    (effective cancellations only — re-cancelling or cancelling a fired id
    does not count). *)

val now : 'msg t -> float
(** Current simulation time. *)

val trace : 'msg t -> Dgs_trace.Trace.t
(** The sink the engine was created with ({!Dgs_trace.Trace.null} when
    tracing is off). *)

val schedule_at : 'msg t -> float -> (unit -> unit) -> event_id
(** Raises [Invalid_argument] when scheduling in the past. *)

val schedule_after : 'msg t -> float -> (unit -> unit) -> event_id
(** Schedule relative to {!now}.  Raises [Invalid_argument] on a negative
    delay. *)

val set_deliver :
  'msg t -> (src:int -> dst:int -> gen:int -> lid:int -> 'msg -> unit) -> unit
(** Install the delivery handler — the single dispatch target of every
    {!schedule_deliver} event (so one engine serves one medium; the last
    installation wins).  Firing a delivery with no handler installed
    raises [Failure]. *)

val schedule_deliver :
  'msg t -> at:float -> src:int -> dst:int -> gen:int -> lid:int -> 'msg -> unit
(** Queue a typed delivery of [msg] from [src] to [dst] at absolute time
    [at]; [gen] is carried verbatim to the handler (the medium's
    stats-window generation), and so is [lid] (the copy's provenance
    lineage id; [-1] when tracing is off — it rides a dedicated int slot
    array, so carrying it allocates nothing).  No cancellation handle:
    in-flight copies are never recalled (the frame is already in the
    air).  Raises [Invalid_argument] when [at] is in the past. *)

val cancel : 'msg t -> event_id -> unit
(** Idempotent; cancelled events are skipped when popped.  Cancelling an
    id that already fired (or was never scheduled) is a no-op and does not
    retain any memory. *)

val cancelled_backlog : 'msg t -> int
(** Cancelled events still sitting in the agenda — drops to 0 once they
    are popped and skipped (diagnostics; the cancel-after-fire leak
    regression test asserts on it). *)

val pending : 'msg t -> int
(** Events still queued (including cancelled ones not yet skipped). *)

val fired : 'msg t -> int
(** Callbacks executed since creation — the [Event_fired] count a traced
    twin of the run would record; cancelled entries skipped when popped
    do not count.  Kept whether or not tracing or metrics are on: the
    [dgs_check] fire-budget oracle reads it. *)

val step : 'msg t -> bool
(** Execute the next event; [false] when the agenda is empty. *)

val run_until : 'msg t -> float -> unit
(** Execute every event with timestamp ≤ the horizon, then advance the
    clock to the horizon.  Events beyond the horizon are never fired, even
    when a cancelled entry with an earlier timestamp sits in front of
    them. *)

val run_all : 'msg t -> max_events:int -> unit
(** Drain the agenda, stopping after [max_events] agenda pops as a runaway
    guard.  Cancelled entries reclaimed without firing count against the
    budget too — the guard bounds agenda {e work}, not just callbacks run —
    so a long cancelled prefix cannot do unbounded pops within it.  (The
    [dgs_check] fire-budget oracle is unaffected: it reads {!fired},
    which skipped entries never bump.) *)
