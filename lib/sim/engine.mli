(** Discrete-event simulation engine.

    A single agenda of timestamped callbacks; ties are broken by
    insertion order, which keeps runs deterministic for a fixed seed.
    Time is a [float] in arbitrary "seconds".  Events are never
    cancelled: a caller that wants to retire a pending callback makes it
    a no-op instead ({!Net} retires timers by liveness generation).

    When created with a trace sink the engine emits
    {!Dgs_trace.Trace.Event_scheduled} / [Event_fired] for every event,
    with ids from one monotonic counter, and advances the sink's clock to
    the simulation time before each event runs — so everything a
    callback emits (deliveries, view changes, ...) is stamped with the
    correct simulation time. *)

type t

val create :
  ?trace:Dgs_trace.Trace.t -> ?metrics:Dgs_metrics.Registry.t -> unit -> t
(** Fresh engine with an empty agenda and the clock at [0.0].  [trace]
    (default {!Dgs_trace.Trace.null}) receives the engine-level events
    and has its clock driven by the event loop.  [metrics] (default
    {!Dgs_metrics.Registry.null}) receives [engine_schedule_total] /
    [engine_fire_total]. *)

val now : t -> float
(** Current simulation time. *)

val fired : t -> int
(** Callbacks executed since creation — the [Event_fired] count a traced
    twin of the run would record.  Kept whether or not tracing or
    metrics are on: the [dgs_check] fire-budget oracle reads it. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Raises [Invalid_argument] when scheduling in the past. *)

val schedule_after : t -> float -> (unit -> unit) -> unit
(** Schedule relative to {!now}.  Raises [Invalid_argument] on a negative
    delay. *)

val run_until : t -> float -> unit
(** Execute every event with timestamp ≤ the horizon, including those
    the callbacks schedule within it, then advance the clock to the
    horizon. *)
