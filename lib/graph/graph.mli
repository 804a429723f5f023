(** Mutable undirected graphs over integer node ids.

    This is the topology representation used by the simulator snapshots and
    by the specification checkers.  Nodes are arbitrary non-negative ints;
    the structure is sparse (hash table of adjacency sets) so that dynamic
    topologies with churn stay cheap. *)

module Int_set = Dgs_util.Int_set

type t

val create : unit -> t
val copy : t -> t

val add_node : t -> int -> unit
(** Idempotent. *)

val remove_node : t -> int -> unit
(** Removes the node and all incident edges; no-op if absent. *)

val add_edge : t -> int -> int -> unit
(** Adds both endpoints if needed.  Self-loops are rejected with
    [Invalid_argument]. *)

val remove_edge : t -> int -> int -> unit
val mem_node : t -> int -> bool
val mem_edge : t -> int -> int -> bool
val neighbors : t -> int -> Int_set.t
(** Empty set for absent nodes. *)

val nodes : t -> int list
(** Sorted. *)

val node_count : t -> int
val edge_count : t -> int

val edges : t -> (int * int) list
(** Each undirected edge once, as [(u, v)] with [u < v], sorted. *)

val of_edges : ?nodes:int list -> (int * int) list -> t
(** Build from an edge list; [nodes] adds isolated nodes. *)

val iter_nodes : t -> (int -> unit) -> unit
val iter_neighbors : t -> int -> (int -> unit) -> unit
val fold_nodes : t -> init:'a -> f:('a -> int -> 'a) -> 'a

val induced : t -> Int_set.t -> t
(** Subgraph induced by a node set (paper Section 3: a subgraph keeps every
    edge whose both endpoints are kept). *)

val equal : t -> t -> bool
(** Same node set and same edge set. *)
