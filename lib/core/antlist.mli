(** Ordered lists of ancestor sets (paper Section 4.2).

    A value [(a0, a1, ..., ap)] records, for each hop distance [i], the set
    [ai] of nodes believed to be at distance [i] from the owner ([a0] is the
    owner itself).  Entries carry a {!Mark.t}; marked entries are link-local
    handshake/rejection state and never denote group members.

    The merge [⊕] unions the levels positionwise and keeps only the first
    (closest) occurrence of every node id; [r] prepends an empty level
    (shifting every distance by one); [ant l1 l2 = l1 ⊕ r l2] is the
    strictly idempotent r-operator the protocol folds over incoming lists.

    Deduplication can transiently empty an interior level (a node known at
    distance [k] through one neighbor also appears closer through another).
    The paper's [⊕] "deletes needless information"; we truncate the list at
    such a gap — the deeper levels carry unreliable distance claims and are
    dropped, not pulled closer — which keeps computed lists free of the [∅]
    sets that [goodList] rejects (DESIGN.md Section 5 discusses this
    choice).  On a fixed topology the fixpoint has no gaps, so truncation
    only shapes the convergence phase. *)

type entry = { id : Node_id.t; mark : Mark.t }
(** An entry as {!levels} and {!level} hand it out; values store none. *)

type t
(** Immutable.  Each level is a sorted [int array] of packed entries
    [(id lsl 2) lor severity] with unique ids — no block per entry, and
    (id, mark) order is integer order.  Ids must lie in [[0, 2^60)]
    (negative ids down to [-2^60] also pack; {!Wire} enforces the
    range).  The membership queries ({!find}, {!mem}) binary-search the
    levels in distance order.  Unchanged levels are shared structurally
    between values, so steady-state equality checks degenerate to
    physical comparisons.  Passes build levels in a per-domain scratch
    buffer and allocate only the arrays they return.  Values may be
    shared between domains freely. *)

val empty : t
(** The list with no levels (never sent; useful as a fold seed in tests). *)

val singleton : Node_id.t -> t
(** [(v)] — a lone unmarked node. *)

val singleton_marked : Node_id.t -> Mark.t -> t
(** [(ū)] or [(ū̄)] — the replacement list for a rejected sender. *)

val of_levels : (Node_id.t * Mark.t) list list -> t
(** Build from raw levels, unchecked except that duplicate ids within a
    level are merged (most severe mark wins).  Intended for tests and fault
    injection; may violate {!well_formed}. *)

val levels : t -> entry list list
(** Levels in distance order; each level sorted by id.  Materializes an
    entry per element: for tests, printing and cold callers. *)

val size : t -> int
(** Number of levels — [s(list)] in the paper. *)

val clear_size : t -> int
(** Number of levels after ignoring trailing levels that contain no Clear
    entry.  This is the group-extent length used by the admission tests:
    marked entries are not group members, so a lone node that has merely
    heard a neighbor still has extent 1. *)

val is_empty : t -> bool

val level : t -> int -> entry list
(** [level t i]; empty when out of range. *)

val level_ids : t -> int -> Node_id.Set.t

val level_size : t -> int -> int
(** Entry count of level [i]; 0 when out of range. *)

val fold_level : t -> int -> init:'a -> f:('a -> Node_id.t -> Mark.t -> 'a) -> 'a
(** Fold over one level in id order, decoding each entry on the fly — the
    hot-path replacement for [level] (which materializes an entry list
    per call). *)

val mem : t -> Node_id.t -> bool
(** Allocation-free. *)

val find : t -> Node_id.t -> (int * Mark.t) option
(** Position and mark of the closest occurrence of a node, if present. *)

val mark_at : t -> int -> Node_id.t -> Mark.t option
(** [mark_at t i v]: the mark of [v] in level [i], if it is there (one
    binary search; allocation-free). *)

val closest_undoubled : t -> Node_id.t -> int
(** Position of the closest occurrence of a node that is not
    double-marked; -1 when there is none.  Allocation-free. *)

val fold_entries : t -> init:'a -> f:('a -> Node_id.t -> int -> Mark.t -> 'a) -> 'a
(** Fold over all entries as [(id, position, mark)] in {!entries} order,
    without materializing them. *)

val exists : t -> f:(Node_id.t -> int -> Mark.t -> bool) -> bool
(** Whether some entry satisfies [f]; stops at the first that does. *)

val ids : t -> Node_id.Set.t

val clear_ids : t -> Node_id.Set.t
(** Ids of unmarked entries only. *)

val entries : t -> (Node_id.t * int * Mark.t) list
(** All entries as [(id, position, mark)], position-major order. *)

val strip_marked : keep:Node_id.t -> t -> t
(** Remove marked entries except those whose id is [keep] (the receiver
    strips everybody else's marks — they are link-local).  Trailing levels
    left empty are trimmed; interior empty levels are kept so that
    [goodList] can reject genuinely malformed lists. *)

val has_empty_level : t -> bool
(** [∅ ∈ list] — any level with no entries at all. *)

val merge : t -> t -> t
(** The [⊕] operator: positionwise union, first occurrence of each id wins
    (ties within a level keep the most severe mark).  A level emptied by the
    deduplication truncates the result: deeper entries carry unreliable
    distance claims and are dropped rather than pulled closer. *)

val shift : t -> t
(** The [r] endomorphism: prepend an empty level. *)

val ant : t -> t -> t
(** [ant l1 l2 = merge l1 (shift l2)]. *)

type ant_fold
(** A left fold of {!ant} in progress: [ant (... (ant seed l1) ...) lk]
    in one pass over each [li], without the intermediate lists.  An
    id-keyed table tracks every entry's closest position; after each list
    the first empty level truncates, exactly where {!ant} would.  The
    table is the domain's: starting a fold abandons any fold in progress
    on the same domain. *)

val ant_fold_start : t -> ant_fold
(** Begin a fold from [seed]. *)

val ant_fold_add : ant_fold -> t -> unit
(** Fold in the next list; allocation-free once the domain's table has
    grown to the fold's distinct ids. *)

val ant_fold_finish : ant_fold -> t
(** The fold's result, equal to the pairwise fold: the seed itself when
    no list was added, else fresh levels (the outer array and one sorted
    array per level, nothing else allocated). *)

val truncate : t -> int -> t
(** Keep the first [k] levels (paper line 28). *)

val restrict_clear : t -> t
(** Drop all marked entries (no [keep] exception), compacting empty levels
    away, in a single fused pass; used to reason about the group skeleton
    in checkers and tests. *)

val well_formed : t -> bool
(** Invariant of lists produced by [compute]: no duplicate ids across
    levels, no empty levels, marked entries only at positions 0 or 1.
    Allocation-free. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
