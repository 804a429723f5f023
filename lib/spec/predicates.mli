(** The specification predicates of paper Section 3.

    Static predicates ([ΠA], [ΠS], [ΠM]) are evaluated on one
    {!Configuration.t}; the dynamic ones ([ΠT], [ΠC]) on a pair of
    successive configurations.  Each check returns a witness of the first
    violation found, so tests and experiment logs can explain failures. *)

type violation = {
  predicate : string;
  subject : Dgs_core.Node_id.t list;  (** the nodes witnessing the violation *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

val agreement : Configuration.t -> violation option
(** [ΠA]: every node belongs to its own view, views contain only existing
    nodes, and all members of a view share it — the views then form a
    partition into groups. *)

val safety : dmax:int -> Configuration.t -> violation option
(** [ΠS]: every group [Ω_v] is connected in the current topology and its
    induced diameter is at most [dmax]. *)

val maximality : dmax:int -> Configuration.t -> violation option
(** [ΠM]: no two distinct groups could be merged while keeping the induced
    diameter of their union within [dmax]. *)

val legitimate : dmax:int -> Configuration.t -> violation option
(** [ΠA ∧ ΠS ∧ ΠM] — the stabilization target. *)

(** {2 Shared primitives}

    {!Incremental} builds its verdicts from these, so they are structurally
    identical to the full checkers'. *)

val group_diameter_ok : dmax:int -> Dgs_graph.Graph.t -> Dgs_core.Node_id.Set.t -> bool
(** Whether a member set induces a connected subgraph of diameter ≤ [dmax]
    (ids absent from the graph are ignored): a BFS from each member, inside
    the set and bounded at depth [dmax], must reach every other member.
    The one test of "fits within Dmax" for ΠS, ΠM, ΠT, the membership
    ledger and the experiments. *)

val safety_violation : dmax:int -> Dgs_core.Node_id.t -> Dgs_core.Node_id.Set.t -> violation
(** The violation {!safety} reports when [Ω_v] fails {!group_diameter_ok}. *)

val merge_violation : dmax:int -> Dgs_core.Node_id.Set.t -> Dgs_core.Node_id.Set.t -> violation
(** The violation {!maximality} reports for a mergeable group pair, with the
    lower-min group first. *)

val topology_preserved : dmax:int -> Configuration.t -> Configuration.t -> violation option
(** [ΠT(c, c')]: for every view of [c], the distance between its members
    inside the view stays within [dmax] in the topology of [c'].  Views
    rather than [Ω] on purpose: [Ω] collapses to singletons during the
    staggered view updates of any merge, which would make every legal merge
    a violation; the paper's own proof of Proposition 14 argues over views
    (DESIGN.md Section 5). *)

val continuity : Configuration.t -> Configuration.t -> violation option
(** [ΠC(c, c')]: no node disappears from any view:
    [view_v(c) ⊆ view_v(c')]. *)

val best_effort : dmax:int -> Configuration.t -> Configuration.t -> violation option
(** The best-effort requirement [ΠT ⇒ ΠC]: a violation is reported only
    when [ΠT] holds across the step and [ΠC] does not. *)
