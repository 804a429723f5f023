(** Spatial hash grid over 2D points for unit-disk neighbor queries.

    The plane is partitioned into square cells of side [cell], the
    unit-disk radius; each occupied cell keeps the ids of the points
    inside it.  A query at radius [cell] only inspects the 3×3 block of
    cells around the query point — the per-cell candidate lookup that
    replaces the O(n²) all-pairs scan in {!Dgs_graph.Gen.of_positions}.

    Points are identified by integer ids chosen by the caller and may sit at
    arbitrary finite coordinates (negative included); coincident points are
    fine.  The structure is mutable and not thread-safe. *)

type t
(** A mutable spatial hash grid. *)

val create : ?expected:int -> cell:float -> unit -> t
(** [create ~cell ()] is an empty grid with square cells of side [cell].
    [expected] sizes the internal tables (default 64).
    @raise Invalid_argument if [cell] is not finite and positive. *)

val cell_coords : t -> Geom.point -> int * int
(** [(floor (x/cell), floor (y/cell))] — the cell a point at [p] would be
    bucketed into (clamped at extreme coordinate/cell ratios).  Exposed so
    spatial partitioners (e.g. {!Dgs_sim}'s shard assignment) can cut the
    node set along the same cell boundaries the neighbor index uses. *)

val insert : t -> int -> Geom.point -> unit
(** [insert t id p] stores a new point.
    @raise Invalid_argument if [id] is already present. *)

val iter_within : t -> Geom.point -> (int -> Geom.point -> unit) -> unit
(** [iter_within t p f] calls [f id q] for every stored point [q] with
    [dist2 p q <= cell *. cell] — the same inclusive test, on the same
    {!Geom.dist2} float expression, as the naive all-pairs scan at radius
    [cell] (or [-. cell]), so callers get bit-for-bit identical adjacency
    decisions.  Order is unspecified; each point is reported once. *)
