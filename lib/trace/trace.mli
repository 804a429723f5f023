(** Structured protocol event tracing ([dgs_trace]).

    A {e trace sink} is a destination for the typed protocol events emitted
    by the simulation stack (network runtime, runners, and the GRP node
    itself).  Every layer takes an optional sink at construction time and
    defaults to {!null}, whose emissions compile down to a single mutable
    field read — runs that do not ask for a trace pay (almost) nothing
    (see docs/OBSERVABILITY.md).

    Timestamps are supplied by the {e driver} of the run: the event-driven
    {!Dgs_sim.Net} stamps sinks with simulation seconds, the synchronous
    round loop ({!Dgs_sim.Sharded}, {!Dgs_sim.Rounds}) every event of round
    [r] with [r].  Components that have no
    clock of their own (notably {!Dgs_core.Grp_node}) emit at whatever time
    the driver last {!set_time}.

    Three concrete sinks are provided: {!Ring} (bounded in-memory buffer,
    for tests and post-mortem inspection), {!Jsonl} (newline-delimited JSON
    to a channel, for offline analysis) and {!Rotating} (size-capped JSONL
    with keep-last-N rotation, for long traced runs).  Sinks compose with
    {!tee} and {!filter_kinds}.  Aggregate event counts come from the
    {!Dgs_metrics.Registry} counters, not from a sink. *)

(** {1 Event vocabulary}

    Node identifiers are plain [int]s (the runtime representation of
    {!Dgs_core.Node_id.t}); this library sits below [dgs_core] so that the
    protocol node itself can emit.

    {b Provenance.}  Every broadcast carries a campaign-unique lineage id
    [lid] (packed [(src lsl 20) lor counter]; [-1] when tracing is
    disabled), and every derived event carries the lineage of the message
    that caused it in [cause] ([-1] = no recorded cause).  {!Causal}
    reconstructs the broadcast→delivery→decision DAG from these fields;
    every event is about one node and is a node of that DAG. *)

type event =
  | Msg_sent of { src : int; lid : int }
      (** A node handed one broadcast to the channel (one per send
          operation, not per receiver).  [lid] is the broadcast's lineage
          id. *)
  | Msg_delivered of { src : int; dst : int; cause : int }
      (** One directed copy of a broadcast reached [dst]; [cause] is the
          broadcast's lineage id. *)
  | Msg_lost of { src : int; dst : int; cause : int }
      (** One directed copy was dropped by the lossy channel. *)
  | Msg_dropped of { src : int; dst : int; cause : int }
      (** One directed copy survived the channel and reached [dst]'s
          runtime at its scheduled delivery time, but was refused before
          the protocol saw it: the destination was deactivated or removed
          in flight, or the frame was corrupted out of the wire grammar.
          Unlike {!Msg_lost} the copy did consume channel resources; unlike
          {!Msg_delivered} it never reached
          {!Dgs_core.Grp_node.receive}. *)
  | View_changed of {
      node : int;
      added : int list;
      removed : int list;
      view : int list;
      cause : int;
    }
      (** [node]'s view changed during a [compute]; [view] is the complete
          new composition, [added]/[removed] the delta (all sorted).
          [cause] is the lineage of the ingested message most responsible
          for the change (a message from an added/removed member when one
          exists, else the newest ingested message). *)
  | Quarantine_enter of { node : int; member : int; remaining : int; cause : int }
      (** [member] became an unmarked list entry at [node] and entered
          quarantine with [remaining] computes to serve.  [cause] is the
          lineage of [member]'s message that created the entry ([-1] when
          the entry arrived indirectly). *)
  | Quarantine_admit of { node : int; member : int; cause : int }
      (** [member]'s quarantine at [node] elapsed: it is now eligible for
          the view. *)
  | Mark_set of { node : int; peer : int; mark : string; cause : int }
      (** [node] marked [peer] in its list; [mark] is ["single"] (link not
          known symmetric) or ["double"] (rejected). *)
  | Mark_cleared of { node : int; peer : int; cause : int }
      (** A previously marked [peer] became a clear list entry at [node] —
          the handshake completed or the rejection was lifted. *)
  | Merge_attempt of { node : int; sender : int; cause : int }
      (** [node] processed a message from [sender], a node outside its
          view — a potential group extension or merge.  [cause] is the
          lineage of [sender]'s message. *)
  | Merge_accepted of { node : int; sender : int; cause : int }
      (** The attempt passed [goodList], [compatibleList] and joint
          admission: [sender]'s list enters the ant fold. *)
  | Gate_conviction of { node : int; peer : int; cause : int }
      (** The conflict gate at [node] convicted [peer]: its conflict streak
          reached the window.  [cause] is the lineage of [peer]'s message
          that completed the streak. *)
  | Contest_win of { node : int; far : int; cause : int }
      (** [node] won a too-far contest over [far] (the loser will be
          double-marked).  [cause] is the lineage of the newest message
          that reported [far] too far. *)
  | Contest_freeze of { node : int; far : int; cause : int }
      (** A too-far contest over [far] at [node] was frozen by the
          oldness-hold cooldown. *)

val kind : event -> string
(** Constructor name of the event, e.g. ["Msg_delivered"]. *)

val kinds : string list
(** Every constructor name, in declaration order.  This is the vocabulary
    docs/OBSERVABILITY.md documents; a unit test diffs the two. *)

val node_of : event -> int
(** The node an event is attributed to ([dst] for deliveries, losses and
    drops, [src] for sends, [node] for protocol events) — the node set
    {!Postmortem} reports on. *)

val cause_of : event -> int
(** The lineage id of the message that caused the event; [-1] when the
    event has no [cause] field or none was recorded. *)

val lid_of : event -> int
(** The lineage id {e minted} by the event: the [lid] of a {!Msg_sent},
    [-1] for every other constructor. *)

val mint_lid : (int, int) Hashtbl.t -> src:int -> int
(** [mint_lid counters ~src] mints the lineage id of [src]'s next
    broadcast, [(src lsl 20) lor k] with [k] the per-source send counter
    kept in [counters] (bumped here).  A runtime keeps one table per
    sending context and calls this only when tracing is enabled, so an
    untraced run never touches it. *)

val pp_event : Format.formatter -> event -> unit

(** {1 Sinks} *)

type t
(** A sink handle.  Handles carry the current trace time (see
    {!set_time}); emission through a disabled handle is a no-op. *)

val null : t
(** The disabled sink: {!enabled} is [false], {!emit} does nothing. *)

val make : (time:float -> event -> unit) -> t
(** A sink from an emission function. *)

val enabled : t -> bool
(** [false] exactly for {!null}.  Hot paths guard event {e construction}
    behind this so a disabled sink costs one load and branch. *)

val set_time : t -> float -> unit
(** Advance the sink's clock; subsequent {!emit}s are stamped with this
    time.  Drivers call it, instrumented components do not. *)

val emit : t -> event -> unit
(** Deliver [event] at the sink's current time (no-op on {!null}). *)

val tee : t -> t -> t
(** Duplicate emissions to both sinks (each stamped with the tee's own
    clock). *)

val filter_kinds : string list -> t -> t
(** Forward only events whose {!kind} is listed (case-insensitive).
    Raises [Invalid_argument] on a name outside {!kinds}. *)

(** {2 Ring sink}

    A bounded in-memory buffer keeping the most recent events — the test
    and post-mortem sink. *)

module Ring : sig
  type sink := t

  type t
  (** A ring buffer of [(time, event)] pairs. *)

  val create : capacity:int -> t
  (** Raises [Invalid_argument] when [capacity < 1]. *)

  val sink : t -> sink
  (** The sink writing into the ring. *)

  val contents : t -> (float * event) list
  (** Buffered events, oldest first; at most [capacity] of them. *)

  val length : t -> int
  (** Events currently buffered. *)

  val seen : t -> int
  (** Events ever emitted, including the [seen - length] oldest ones
      overwritten by wraparound. *)

  val clear : t -> unit
end

(** {2 JSONL sink}

    One JSON object per line: [{"t":<time>,"ev":"<kind>", ...fields}],
    written and read with {!Dgs_util.Json}.  The exact schema of every
    event is documented in docs/OBSERVABILITY.md.  Traces are lossless:
    {!Jsonl.of_string} returns exactly the time and event
    {!Jsonl.to_string} printed, since {!Dgs_util.Json.num} prints every
    finite float so that it reads back exactly.  Provenance fields
    ([lid], [cause]) are omitted when [-1] and default to [-1] when
    absent, so traces recorded before the lineage layer still load. *)

module Jsonl : sig
  type sink := t

  val fields : event -> (string * Dgs_util.Json.t) list
  (** The event's JSON fields beyond ["t"]/["ev"], in emission order —
      the schema surface the docs field table is diffed against. *)

  val to_string : float -> event -> string
  (** One line, without the trailing newline. *)

  val of_string : string -> (float * event) option
  (** Parse one line; [None] on malformed input or an unknown [ev] — the
      engine and topology kinds ([Event_scheduled], [Event_fired],
      [Topology_change]) of older traces included. *)

  val sink : out_channel -> sink
  (** Write one line per event; the caller owns (flushes, closes) the
      channel. *)

  val with_file : string -> (sink -> 'a) -> 'a
  (** [with_file path f] opens [path], runs [f] with a sink writing to it
      and closes the file, also on exceptions. *)

  val load : string -> (float * event) list
  (** Read a JSONL trace back; lines {!of_string} rejects are skipped. *)
end

(** {2 Rotating JSONL sink}

    A size-capped variant of {!Jsonl} for long traced runs: when the
    current file would exceed [max_bytes], it is renamed to [path.1]
    (existing [path.N] shift to [path.N+1], the oldest beyond [keep - 1]
    is deleted) and a fresh [path] is opened — so at most [keep] files
    ([path], [path.1] … [path.(keep-1)]) ever exist and the newest events
    are always in [path].  Rotation happens on line boundaries; every
    file is valid JSONL. *)

module Rotating : sig
  type sink := t

  type t

  val create : path:string -> max_bytes:int -> keep:int -> t
  (** Open [path] for writing.  Raises [Invalid_argument] when
      [max_bytes < 1] or [keep < 1] ([keep = 1] means no history: the
      file is simply truncated at each rotation). *)

  val sink : t -> sink

  val rotations : t -> int
  (** Rotations performed so far. *)

  val close : t -> unit

  val with_file : string -> max_bytes:int -> keep:int -> (sink -> 'a) -> 'a
  (** Like {!Jsonl.with_file} with rotation. *)
end
