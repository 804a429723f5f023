(** Discrete-event simulation engine.

    A single agenda of timestamped callbacks; ties are broken by
    insertion order, which keeps runs deterministic for a fixed seed.
    Time is a [float] in arbitrary "seconds".  Events are never
    cancelled: a caller that wants to retire a pending callback makes it
    a no-op instead ({!Net} retires timers by liveness generation).

    The engine traces nothing: its schedule and fire counts are the
    [engine_*] counters and {!fired}, and the callbacks stamp their own
    trace sinks with {!now} ({!Net} does so before each compute, send
    and delivery). *)

type t

val create : ?metrics:Dgs_metrics.Registry.t -> unit -> t
(** Fresh engine with an empty agenda and the clock at [0.0].  [metrics]
    (default {!Dgs_metrics.Registry.null}) receives
    [engine_schedule_total] / [engine_fire_total]. *)

val now : t -> float
(** Current simulation time. *)

val fired : t -> int
(** Callbacks executed since creation.  Kept whether or not metrics are
    on: the [dgs_check] fire-budget oracle reads it. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Raises [Invalid_argument] when scheduling in the past. *)

val schedule_after : t -> float -> (unit -> unit) -> unit
(** Schedule relative to {!now}.  Raises [Invalid_argument] on a negative
    delay. *)

val run_until : t -> float -> unit
(** Execute every event with timestamp ≤ the horizon, including those
    the callbacks schedule within it, then advance the clock to the
    horizon. *)
