(** Per-node GRP protocol state machine (paper Section 4.3).

    The node is driven from outside by the three events of Algorithm GRP:
    message reception ({!receive}), the compute timer [Tc] ({!compute}) and
    the send timer [Ts] ({!make_message} gives the payload to broadcast).
    Timers themselves belong to the simulator/runtime layer.

    The state a node exposes to applications is its {!view} — the agreed
    composition of its group.  {!antlist} is the protocol-internal list of
    ancestor sets, which also holds the link-local marks. *)

type t

type step_info = {
  view_added : Node_id.Set.t;
  view_removed : Node_id.Set.t;  (** non-empty only on evictions — the continuity metric *)
  too_far_conflict : bool;  (** the Dmax+2 overflow branch fired *)
  contest_wins : (Node_id.t * Node_id.Set.t) list;
      (** too-far contests the far node won this step, newest first, with
          the providers that were cut (double-marked; their union is
          every sender the contest rejected) — within
          [Priority.cooldown_window] computes of a win the far node may
          keep winning against overlapping provider sets but not against a
          disjoint pairing ([Config.contest_cooldown_enabled]) *)
}

val create :
  config:Config.t ->
  ?trace:Dgs_trace.Trace.t ->
  ?metrics:Dgs_metrics.Registry.t ->
  Node_id.t ->
  t
(** Fresh node: list [(v)], view [{v}], priority oldness 0.  [trace]
    (default {!Dgs_trace.Trace.null}) receives the node's protocol events
    — [View_changed], [Quarantine_enter]/[Quarantine_admit],
    [Mark_set]/[Mark_cleared], [Merge_attempt]/[Merge_accepted],
    [Contest_win]/[Contest_freeze] and [Gate_conviction] — emitted
    during {!compute}; timestamps come from whatever clock the driving
    runtime last set on the sink.  [metrics] (default
    {!Dgs_metrics.Registry.null}) receives the node's counters, the
    [grp_view_size] histogram, the [grp_compute_ns]/[grp_fold_ns]
    timers and the seven contiguous [grp_compute_*_ns] phase timers that
    sum to [grp_compute_ns] (families listed in {!Dgs_metrics.Names});
    handles are
    resolved once here, so a disabled registry costs one load + branch
    per site inside {!compute}. *)

val id : t -> Node_id.t

val view : t -> Node_id.Set.t
(** Current output of the protocol: unmarked list members with elapsed
    quarantine; always contains the node itself. *)

val antlist : t -> Antlist.t
val own_priority : t -> Priority.t

val group_priority : t -> Priority.t
(** Minimum priority over the current view members (own priority when
    alone). *)

val quarantine_of : t -> Node_id.t -> int option
(** Remaining quarantine timers of a list member. *)

val quarantines : t -> int Node_id.Map.t
(** The whole quarantine table (stability detection, tests). *)

type state
(** A snapshot of the protocol state that quiescence detection watches:
    the node's id, list, view and quarantine table, held by reference.
    All four are immutable values, so taking a snapshot copies nothing. *)

val state : t -> state
(** The node's current state; a 5-word record, nothing else allocated. *)

val same_state : state -> state -> bool
(** Equal ids, lists ({!Antlist.equal}), views and quarantine tables:
    structural equality, independent of the shape of the set and map
    trees, tried physically first on each field.  [compute] keeps the
    list and view physically when they are unchanged, and an elided
    compute keeps the quarantine table too, so comparing the snapshots
    of a quiet node costs a few pointer tests. *)

val quiet_rounds : Config.t -> int
(** The quiescence rule every runner stops on: a network has settled once
    every node's {!state} stayed {!same_state} for [dmax + 5] consecutive
    rounds (or [Tc] polls).  No settled run of the n <= 5 census, the
    n = 6 lockstep census or E2 moved again in 200 to 2000 more rounds.
    Known limit: the gate and cooldown windows
    ([Priority.cooldown_window], 2·Dmax+2) exceed it for Dmax > 3, and
    {!state} cannot see their counters (DESIGN.md Section 5, item 21). *)

val known_priority : t -> Node_id.t -> Priority.t option

val pending_senders : t -> Node_id.Set.t
(** Senders with a message buffered for the next {!compute}
    (testing/inspection). *)

val receive : t -> Message.t -> unit
(** Buffer the message for the next {!compute}; among several messages
    from one sender the last received wins (the one-message channel,
    [msgSet] of the paper).  Appends to a reusable flat buffer —
    allocation-free once the buffer has grown to the node's degree.  The
    buffer holds a message only until the compute that reads it.
    Equivalent to {!receive_lid} with [lid = -1]. *)

val receive_lid : t -> lid:int -> Message.t -> unit
(** {!receive} with the copy's provenance lineage id (from
    {!Dgs_sim.Net}; [-1] when tracing is off).  Under an enabled trace
    sink the id lands in an int array parallel to the inbox, where it
    becomes the [cause] of the decision events this message flips; on a
    null sink it is dropped, and that array is never allocated.  Either
    way threading it is allocation-free.  [lid] is a required labelled
    argument — an optional one would box a [Some] per delivery. *)

val compute : t -> step_info
(** Procedure [compute()] of the paper: check incoming lists (goodList,
    compatibleList), fold the [ant] operator, resolve too-far conflicts by
    priority, update quarantines, the view and the priorities; finally reset
    [msgSet] and build the next message, which {!make_message} returns.
    Every compute runs on per-domain scratch buffers (the sender table,
    which holds [msgSet] and where admission leaves each sender's list,
    the priority merge, the ant fold, reach sets), so a node may be
    computed on any domain, one compute at a time.

    {b Elision and decision reuse.}  A compute is a deterministic
    function of the node state and [msgSet].  A full compute that is a
    fixpoint (list, view, quarantines and own priority unchanged, no
    contest, conflict, starvation or cooldown state before or after) is
    recorded, with whether its list, view and quarantine decisions read a
    priority (the too-far contest, or the cross check ordering two or
    more fresh senders).  The record is reused at two levels:
    - when this [msgSet] maps the same senders to physically the same
      messages, the compute is skipped: it returns the recorded
      {!step_info} (physically) and replays the counters the full
      compute would bump ([grp_compute_total],
      [grp_compute_cache_hit_total], [grp_ant_merge_total],
      [grp_restrict_clear_total]).  It allocates nothing;
    - when the messages changed but their lists and views are physically
      the recorded ones, and the recorded decisions read no priority,
      only the priority table and the next message are rebuilt: the
      compute returns the recorded {!step_info}, replays the same
      counters with a cache miss in place of the hit, and records the
      new messages.  It allocates the table's two arrays and the
      message.  This is what keeps the neighbours of an
      aging solo node, whose messages change only in their priorities,
      off the full compute.
    An enabled trace sink disables both, since a traced fixpoint compute
    still emits events, and every [corrupt_*] hook clears the record. *)

val make_message : t -> Message.t
(** The message to broadcast: list, view, group priority and the known
    priorities of the list members (the node's table filtered against its
    list, as id-sorted arrays).  While the state it is built from is
    unchanged — after an elided {!compute}, or a full one that left an
    equal message — the previous message is returned physically, so
    receivers see [==] inputs; a repeated call on a quiet node allocates
    nothing.  The [corrupt_*] hooks force a rebuild. *)

(** {2 White-box admission tests} (exposed for unit tests) *)

val good_list : t -> sender:Node_id.t -> Antlist.t -> bool
(** The [goodList] test on the sender's raw (still marked) list: the local
    node appears unmarked or single-marked in [list.1], or Clear at any
    depth (the sender already computes it as a group member); the sender
    alone heads the list, the clear extent fits in [Dmax+1] and no level
    is empty. *)

val compatible_list : t -> sender_view:Node_id.Set.t -> Antlist.t -> bool
(** The [compatibleList] admission test against the node's current state,
    with extents measured over established group members (the sender's
    advertised view, and the receiver's view plus the views its senders
    advertise).  Note (DESIGN.md Section 5): the shortcut disjunct requires
    {e both} bounds [p-i+1+q <= Dmax] and [i/2+q+1 <= Dmax]; the paper's
    "either ... or" would let a lone node join a diameter-[Dmax] group,
    which its own proof of Proposition 13 excludes.  Between computes
    there is no [msgSet], so the receiver's side is its own view only. *)

val priority_table :
  me:Node_id.t ->
  own_priority:Priority.t ->
  Message.t array ->
  Node_id.t array * Priority.t array * int
(** The priority table a {!compute} builds from msgSet, before the list
    filter: [msgs] in increasing sender order (distinct senders), merged
    with the own entry [(me, own_priority)] into id-sorted arrays, and the
    largest oldness gossiped.  On a shared id the larger oldness wins and
    the earlier sender keeps a tie; gossip never replaces the own entry; a
    sender's report about itself overrides gossip.  Allocates the two
    arrays and the triple only. *)

val convictions : t -> Node_id.Set.t
(** Nodes currently inadmissible under the membership re-validation of the
    admission gate: the node itself has advertised a view excluding me for
    a full [Priority.cooldown_window] of consecutive reports, or has
    starved its retention of all admission evidence for that long
    (white-box inspection; empty when the gate is off). *)

(** {2 Fault injection} (self-stabilization tests start from arbitrary
    states).  Each hook also clears the compute-elision record and the
    {!make_message} cache. *)

val corrupt_list : t -> Antlist.t -> unit
val corrupt_view : t -> Node_id.Set.t -> unit
val corrupt_quarantine : t -> (Node_id.t * int) list -> unit
val corrupt_priority : t -> Priority.t -> unit
val corrupt_priority_table : t -> (Node_id.t * Priority.t) list -> unit

val pp : Format.formatter -> t -> unit
