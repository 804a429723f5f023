(** Message-lineage DAG over a recorded trace.

    Rebuilds the causal structure of a run from the provenance fields of
    its JSONL trace (docs/OBSERVABILITY.md, "Causal provenance"): every
    [Msg_sent] is linked to the events its lineage id caused (delivery
    and loss of each directed copy, and the protocol decisions the
    received message fed), and every [View_changed] to the node's next
    broadcast — so a backward walk crosses compute boundaries and can
    trace a whole livelock rotation.

    Every event is a node of the DAG: each kind in {!Trace.kinds} is
    about one network node and is emitted once whatever the shard count
    (traces recorded before the engine and topology kinds were retired
    load without them, {!Trace.Jsonl.of_string}).  Event ids are canonical
    (sorted by time, then kind — broadcasts before deliveries before
    decisions, so same-tick traces keep every edge pointing backward —
    then serialized form), so sharded runs at any
    [--jobs] build the identical DAG; {!signature} is the pinned
    contract. *)

type t

val build : (float * Trace.event) list -> t
(** Build the DAG from in-memory events (any order). *)

val of_file : string -> t
(** {!build} over {!Trace.Jsonl.load}. *)

val size : t -> int
(** Number of DAG nodes (events). *)

val event : t -> int -> float * Trace.event
(** The event behind an id.  Ids are [0 .. size - 1] in canonical
    (time, serialization) order. *)

val parents : t -> int -> int list
(** Direct causes, ascending.  A derived event's parent is the
    [Msg_sent] of its [cause]; a [Msg_sent]'s parent is the sender's
    preceding state-changing decision — view change, mark, quarantine
    transition, merge acceptance, gate conviction or contest outcome
    (when any); a decision with no recorded cause (a timer-driven
    transition, e.g. a quarantine countdown tick) is linked from the
    node's preceding decision, so backward walks don't dead-end on
    it. *)

val children : t -> int -> int list
(** Direct effects, ascending. *)

val ancestors_of : t -> int -> int list
(** Backward slice: every transitive cause of an event, ascending. *)

val between : t -> lo:float -> hi:float -> int list
(** Ids of events with time in [[lo, hi]], ascending. *)

val find_last : t -> ?at:float -> (float -> Trace.event -> bool) -> int option
(** Latest event satisfying the predicate, restricted to times [<= at]
    when given. *)

val proximate : t -> int -> int option
(** The event's most proximate cause: its {e latest} parent; [None] for
    a root.  Parents always have smaller ids than their children. *)

val chain : t -> ?stop_at:float -> int -> int list
(** The minimal causal chain behind an event, root first: at each step
    the {!proximate} cause is followed.  With
    [stop_at], the walk ends once a step at or before that time has been
    included — used to cover exactly one livelock rotation. *)

val detect_period : t -> (int * int) option
(** [(start, last)] ids delimiting one full rotation of a livelock:
    [last] is the trace's last protocol decision (view change, mark,
    quarantine transition, merge, gate conviction or contest outcome —
    message events recur in any steady state and are ignored) and
    [start] an earlier recurrence of the identical transition, chosen so
    the {e whole} decision sequence between them repeats one period
    earlier (same provenance-free renderings at the same times modulo
    the period) — a bare recurrence is not enough, since one node can
    flip several times inside one rotation of the global state.  Falls
    back to the most recent bare recurrence when the trace is too short
    to validate a full period; [None] when no transition recurs. *)

val slice_period : t -> (int * int * int list) option
(** {!detect_period} plus every event id inside the period (inclusive
    bounds), ascending. *)

val to_dot : t -> int list -> string
(** Graphviz rendering of the sub-DAG induced by the given ids. *)

val signature : t -> string
(** Canonical text form of the whole DAG — one line per event (its JSONL
    serialization and parent ids).  Byte-identical across shard/job
    counts for the same run; the jobs-identity test diffs it. *)

val pp_step : Format.formatter -> t * int -> unit
(** One chain step: [[#id] t=... Event(...)]. *)

val pp_chain : Format.formatter -> t * int list -> unit
(** An indented timeline of a {!chain}, one hop per line. *)
