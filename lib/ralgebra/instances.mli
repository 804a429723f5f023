(** Classical r-operator instances (the examples of [13] the paper builds
    on) and the graph tasks they stabilize to.

    Each instance module satisfies {!Roperator.S}; each [task] function
    runs the generic register-model iteration and returns the silent
    fixpoint, which the tests compare against the direct graph
    algorithms of [Dgs_graph]. *)

(** Hop distance: [(ℕ∪∞, min)] with [r x = x + 1] — stabilizes to the
    distance to the nearest "source" node. *)
module Dist : sig
  include Roperator.S with type t = int

  val infinity : t
end

val distances :
  sources:Dgs_graph.Graph.Int_set.t -> Dgs_graph.Graph.t -> (int * int) list * int
(** [(node, hop distance to the nearest source)] for every node, plus the
    number of synchronous steps to silence.  Unreachable nodes report
    {!Dist.infinity}. *)

(** Leader election: [(ids, min)] with [r = identity] — every node
    stabilizes to the smallest id of its connected component.  [r] is not
    strictly inflationary, so the task is stabilizing only from
    well-formed inputs (ids that exist); this is exactly the weakness the
    paper's marks-and-existence machinery works around, and the tests
    demonstrate it. *)
module Min_id : Roperator.S with type t = int

val leaders : Dgs_graph.Graph.t -> (int * int) list * int
(** [(node, component leader)] for every node. *)

(** Max-id flooding: the mirror of {!Min_id} — every node stabilizes to
    the largest id of its component (the flood-max phase of the Max-Min
    clustering baseline is exactly [d] steps of this iteration). *)
module Max_id : Roperator.S with type t = int

val max_leaders : Dgs_graph.Graph.t -> (int * int) list * int
