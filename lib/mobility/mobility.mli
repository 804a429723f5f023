(** Unified front-end over the mobility models.

    A value of type {!t} animates [n] node positions; {!graph} derives the
    unit-disk topology the simulator feeds to the protocol, through the
    spatial hash grid only (the all-pairs reference scan,
    {!Dgs_graph.Gen.of_positions_naive}, is a test oracle). *)

type spec =
  | Static of Dgs_util.Geom.point array
  | Waypoint of {
      xmax : float;
      ymax : float;
      vmin : float;
      vmax : float;
      pause : float;
    }
  | Walk of { xmax : float; ymax : float; speed : float; turn_sigma : float }
  | Highway of {
      lanes : int;
      lane_gap : float;
      length : float;
      vmin : float;
      vmax : float;
      bidirectional : bool;
    }
  | Manhattan of { blocks_x : int; blocks_y : int; block : float; speed : float }

type t

val create : Dgs_util.Rng.t -> n:int -> spec -> t
(** For [Static p], [n] must equal [Array.length p]. *)

val positions : t -> Dgs_util.Geom.point array
val step : t -> dt:float -> unit

val graph : t -> range:float -> Dgs_graph.Graph.t
(** Unit-disk graph over the current positions, resolved through the
    spatial hash grid of {!Dgs_graph.Gen.of_positions}. *)

val spec_name : spec -> string

(** Schedule-step driving of a mobility model over a live, mutable graph.

    A driver animates a fixed set of (not necessarily dense) node ids and
    projects their unit-disk connectivity onto a graph owned by the
    caller: {!Dgs_check}'s executor runs one as scenario actions, any
    event-driven runner that owns its topology can do the same.  The
    caller alternates {!Driver.step} (advance positions) and
    {!Driver.apply} (rewire). *)
module Driver : sig
  type nonrec t

  val create :
    Dgs_util.Rng.t -> ids:int list -> spec:spec -> range:float -> t
  (** Tracks [ids] (deduplicated, sorted; slot [i] of the model animates
      the [i]-th id).  Raises [Invalid_argument] when [range <= 0] or, for
      [Static p], when [Array.length p] differs from the id count. *)

  val step : t -> dt:float -> unit

  val apply : t -> Dgs_graph.Graph.t -> bool
  (** Set, among the tracked ids still present in the graph, exactly the
      edges whose endpoints lie within [range] of each other; edges
      touching untracked or departed nodes are left alone.  Returns
      whether any edge changed. *)

  val ids : t -> int list
  val positions : t -> Dgs_util.Geom.point array
end
