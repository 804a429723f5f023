(** Configuration snapshots: the topology plus every node's view.

    This is the observable state over which the Dynamic Group Service
    specification (paper Section 3) is evaluated.  The protocol-internal
    state (lists, marks, quarantines) is deliberately absent: the predicates
    are defined on the outputs. *)

type t = {
  graph : Dgs_graph.Graph.t;
  views : Dgs_core.Node_id.Set.t Dgs_core.Node_id.Map.t;
}

val make :
  graph:Dgs_graph.Graph.t -> views:Dgs_core.Node_id.Set.t Dgs_core.Node_id.Map.t -> t

val view : t -> Dgs_core.Node_id.t -> Dgs_core.Node_id.Set.t
(** A node's view; the singleton of the node when unknown. *)

val nodes : t -> Dgs_core.Node_id.t list

val omega : t -> Dgs_core.Node_id.t -> Dgs_core.Node_id.Set.t
(** The group [Ω_v] of the paper: [view_v] when [v] belongs to it and every
    member agrees on it, [{v}] otherwise. *)

val groups : t -> Dgs_core.Node_id.Set.t list
(** The distinct [Ω] groups, sorted by smallest member. *)
