(** Topology generators for tests and experiments.

    All generators number nodes [0..n-1].  Geometric generators also return
    the node positions, which the mobility models advance between rounds and
    from which the unit-disk graph is rebuilt after every move. *)

val line : int -> Graph.t
(** Path 0-1-…-(n-1). *)

val ring : int -> Graph.t
(** Cycle; requires n ≥ 3. *)

val grid : int -> int -> Graph.t
(** [grid rows cols], 4-neighborhood. *)

val complete : int -> Graph.t

val star : int -> Graph.t
(** Node 0 is the hub of n-1 leaves. *)

val binary_tree : int -> Graph.t
(** Heap-shaped: node i links to 2i+1 and 2i+2 when present. *)

val erdos_renyi : Dgs_util.Rng.t -> n:int -> p:float -> Graph.t
(** G(n,p); isolated nodes kept. *)

val random_geometric :
  Dgs_util.Rng.t -> n:int -> xmax:float -> ymax:float -> range:float ->
  Graph.t * Dgs_util.Geom.point array
(** Uniform positions in the box, unit-disk edges at distance ≤ [range]. *)

val random_geometric_connected :
  Dgs_util.Rng.t -> n:int -> xmax:float -> ymax:float -> range:float ->
  max_tries:int -> (Graph.t * Dgs_util.Geom.point array) option
(** Rejection-sample {!random_geometric} until connected. *)

val of_positions : Dgs_util.Geom.point array -> range:float -> Graph.t
(** Unit-disk graph over the given positions: an edge joins [i] and [j] iff
    [dist2 positions.(i) positions.(j) <= range *. range].  Resolved with a
    {!Dgs_util.Spatial_grid} keyed by [range] — O(n) on bounded-density
    inputs — and {!Graph.equal} to {!of_positions_naive} on every input. *)

val of_positions_naive : Dgs_util.Geom.point array -> range:float -> Graph.t
(** The O(n²) all-pairs reference for {!of_positions}; kept as the equality
    oracle in tests. *)

val barbell : int -> int -> Graph.t
(** Two cliques of the given sizes joined by a single edge between node 0
    and node [size1]. *)

val caterpillar : spine:int -> legs:int -> Graph.t
(** A path of [spine] nodes, each carrying [legs] pendant leaves — a
    stress shape for the diameter constraint. *)

val group_chain : groups:int -> group_size:int -> Graph.t
(** [groups] cliques in a row, consecutive cliques joined by one edge: the
    merge-chain scenario of experiment E4. *)

val group_loop : groups:int -> group_size:int -> Graph.t
(** Like {!group_chain} but closing the chain into a loop: the
    "loop of groups willing to merge" case resolved by group priorities
    (paper Section 4.1). *)
