(** Hop distances, eccentricities and connectivity on {!Graph.t}.

    Distances are hop counts; unreachable pairs are {!infinity} (the paper
    sets [d_X(u,v) = +∞] when no path exists inside the subgraph [X]). *)

val infinity : int
(** Sentinel distance, larger than any path length (max_int / 4). *)

val bfs : Graph.t -> int -> int Dgs_util.Int_tbl.t
(** [bfs g src] maps every reachable node to its hop distance from [src].
    Unreachable nodes are absent. *)

val dist : Graph.t -> int -> int -> int
(** Hop distance, or {!infinity} when disconnected or either node is
    absent. *)

val eccentricity : Graph.t -> int -> int
(** Max distance from a node to any other node of its component. *)

val diameter : Graph.t -> int
(** Max eccentricity over the graph; {!infinity} when the graph is
    disconnected, 0 for graphs with at most one node. *)

val diameter_of_set : Graph.t -> Graph.Int_set.t -> int
(** Diameter of the induced subgraph; {!infinity} if it is disconnected. *)

val is_connected : Graph.t -> bool
(** Vacuously true for the empty graph. *)
