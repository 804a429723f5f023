(** Oracle polls of the static predicates [ΠA], [ΠS], [ΠM] over a run.

    Each {!check} first diffs every node's adjacency and view against the
    previous poll.  That diff is the checker's only shortcut: when no node
    is new, departed, marked or changed, the previous verdicts still stand
    and the poll costs one scan over the nodes.  Otherwise the poll runs one
    full pass and keeps no other state across polls: the sorted [ΠA] scan of
    {!Predicates.agreement}, one [Ω] and one diameter check per distinct
    group for [ΠS], and one union check per group pair joined by an edge,
    in (min, min) order, for [ΠM].  Under mobility nearly every node is
    dirty at every poll, so caching per-node or per-group verdicts across
    polls saves nothing there.

    Verdicts are {e structurally identical} to the full checkers': the same
    scan orders, the same violation constructors, the same first witness.
    On configurations of at most [cross_check_limit] nodes, every full pass
    is also compared with the full checkers and raises {!Mismatch} on any
    disagreement.

    The checker snapshots per-node neighbor sets (immutable) rather than
    the graph object, so callers may mutate a graph in place between
    polls; each poll sees the then-current adjacency. *)

type t
(** Mutable checker state: the previous poll's snapshot and verdicts, the
    pending marks and the counters. *)

type verdicts = {
  agreement : Predicates.violation option;  (** [ΠA], as {!Predicates.agreement} *)
  safety : Predicates.violation option;  (** [ΠS], as {!Predicates.safety} *)
  maximality : Predicates.violation option;  (** [ΠM], as {!Predicates.maximality} *)
}
(** One poll's verdicts; [None] means the predicate holds. *)

type stats = {
  polls : int;  (** calls to {!check} *)
  dirtied : int;  (** dirty nodes across all polls (marks + diffs) *)
  full_passes : int;  (** polls that ran the full pass *)
  cross_checks : int;  (** full passes also compared with the full checkers *)
}
(** Cumulative work counters: [polls - full_passes] polls were answered by
    the diff alone. *)

exception Mismatch of string
(** Raised by {!check} when the small-topology cross-check finds the
    incremental and full verdicts disagreeing (a checker bug by definition). *)

val create : ?cross_check_limit:int -> dmax:int -> unit -> t
(** A fresh checker for diameter bound [dmax].  Full passes on
    configurations of at most [cross_check_limit] nodes (default 64) are
    cross-checked against the full {!Predicates}; pass [0] to disable. *)

val mark_dirty : t -> Dgs_core.Node_id.t -> unit
(** Count a node as dirty at the next poll, forcing a full pass.  The diff
    already sees every adjacency and view change still standing at the
    poll; a mark adds only changes undone before it. *)

val check : t -> Configuration.t -> verdicts
(** Evaluate all three static predicates on [c]: the previous verdicts when
    the diff finds nothing dirty, a full pass otherwise.
    @raise Mismatch if the small-topology cross-check disagrees. *)

val legitimate : verdicts -> Predicates.violation option
(** First violation in the order of {!Predicates.legitimate}:
    agreement, then safety, then maximality. *)

val stats : t -> stats
(** Cumulative counters since {!create}. *)
