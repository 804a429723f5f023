(** Always-on metrics registry: typed counters, gauges, timers and
    fixed-width histograms with the same zero-cost-when-disabled
    discipline as {!Dgs_trace.Trace.null}.

    A registry is either {e live} ({!create}) or {e disabled} ({!null}).
    Instrumented components resolve their handles once, at construction
    time ({!counter}, {!timer}, ...); on a disabled registry every handle
    is inert and each hot-path operation ({!Counter.incr},
    {!Timer.start}/{!Timer.stop}, {!Hist.observe}) costs exactly one
    field load and branch, as documented in docs/OBSERVABILITY.md.

    Handles are interned by name: two [counter reg name] calls return the
    physically same handle, so independent call sites accumulate into one
    series.  Names may carry Prometheus-style labels (see {!labelled});
    the part before ['{'] is the metric family, which is what the
    docs/OBSERVABILITY.md vocabulary test diffs against {!Names.all}.

    Registries are single-domain mutable state, exactly like trace sinks:
    parallel campaigns give every domain (or every run) its own registry
    and {!merge} the {!snapshot}s at collection.  Counters, gauges and
    histograms are pure functions of the simulated schedule, so merged
    counter sections are byte-identical for every [--jobs] value
    ({!counters_to_json}); timer durations are wall clock and are merged
    but labelled non-deterministic.

    Timers use {!Unix.gettimeofday} scaled to nanoseconds — monotonic for
    all practical purposes at the phase granularity measured here. *)

type t

val null : t
(** The disabled registry: {!enabled} is [false], every handle resolved
    from it is inert. *)

val create : unit -> t
(** A fresh live registry. *)

val enabled : t -> bool
(** [false] exactly for {!null}.  Instrumentation sites guard {e derived}
    work (diffing state to decide what to count) behind this, the same
    way trace sites guard event construction. *)

val labelled : string -> (string * string) list -> string
(** [labelled name [("k", "v"); ...]] is [name{k="v",...}] with labels
    sorted by key — the canonical labelled-series name.  [labelled name []]
    is [name]. *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
end

module Timer : sig
  type t

  val start : t -> float
  (** A timestamp token for {!stop}; [0.0] (and no clock read) when the
      registry is disabled. *)

  val stop : t -> float -> unit
  (** Record one span from a {!start} token; no-op when disabled. *)

  val lap : t -> float -> float
  (** [lap tm t0] records the span from [t0] to now and returns now as the
      token of the next span: consecutive phases timed with one clock read
      per boundary, so their spans sum exactly to the whole.  [0.0] and
      no clock read when disabled. *)

  val time : t -> (unit -> 'a) -> 'a
  (** [time tm f] runs [f ()] inside a {!start}/{!stop} pair (also on
      exceptions). *)

  val count : t -> int
  val total_ns : t -> float
end

module Hist : sig
  type t

  val observe : t -> float -> unit
  val observe_int : t -> int -> unit
  val count : t -> int
end

val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t
val timer : t -> string -> Timer.t

val histogram : ?bin_width:float -> t -> string -> Hist.t
(** Default bin width 1.0.  The width of the first registration of a name
    wins; a later registration with a different width raises
    [Invalid_argument]. *)

(** {1 Snapshots}

    A snapshot is an immutable, sorted capture of a registry, carrying
    machine-readable host context in its header: [cores] is
    [Domain.recommended_domain_count ()] at capture time and [jobs] the
    [--jobs] value of the producing run, so committed snapshots from
    different hosts stay comparable. *)

type timer_stat = { spans : int; total_ns : float; max_ns : float }

type snapshot = {
  cores : int;
  jobs : int option;
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  timers : (string * timer_stat) list;  (** sorted by name *)
  histograms : (string * (float * (float * int) list)) list;
      (** name -> (bin_width, non-empty bins sorted by lower bound) *)
}

val snapshot : ?jobs:int -> t -> snapshot
(** Capture the registry.  Handles that were registered but never touched
    still appear (counters at 0), so snapshot key sets are stable across
    runs of differing activity. *)

val merge : snapshot list -> snapshot
(** Pointwise merge: counters, timer spans/totals and histogram bins are
    summed, gauges and timer maxima take the maximum, [cores] the
    maximum, [jobs] the first [Some].  Raises [Invalid_argument] when two
    snapshots disagree on a histogram's bin width.  [merge []] is the
    empty snapshot. *)

val to_json : snapshot -> string
(** One-line JSON object with fixed key order and deterministic number
    formatting:
    [{"schema":1,"cores":C,"jobs":J,"counters":{...},"gauges":{...},
    "timers_ns":{name:{"count":N,"total":T,"max":M}},
    "histograms":{name:{"bin_width":W,"bins":[[lo,count],...]}}}]. *)

val counters_to_json : snapshot -> string
(** Only the counters object, ["{\"a\":1,...}"] — the deterministic core
    of a snapshot.  The [--jobs] determinism guarantee is stated (and
    tested) as byte equality of these strings across jobs values. *)

val to_prometheus : snapshot -> string
(** Prometheus text exposition: [# TYPE] comments plus one
    [name value] line per series; timers expand to [_count]/[_total_ns]/
    [_max_ns], histograms to cumulative [_bucket{le="..."}] plus
    [_count]. *)

val snapshot_of_json : string -> snapshot option
(** Parse {!to_json} output back; [None] on malformed input.
    Round-trip: [snapshot_of_json (to_json s) = Some s]. *)
