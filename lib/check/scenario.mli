(** Scenario scripts: the input language of the fuzzer.

    A scenario is a reproducible experiment: an initial topology, channel
    parameters, and a timed schedule of disruptions (churn, rewiring, loss
    ramps) interleaved with pauses that let the simulation advance.  The
    {!Executor} replays a scenario against a fresh {!Dgs_sim.Net} and the
    {!Oracle} judges the run.

    Everything is derived deterministically from the scenario value itself
    (the embedded [seed] feeds every random stream), so a scenario written
    to disk is a complete, replayable bug report.  The JSON encoding keeps
    the whole script human-readable: the topology and each action are
    single strings like ["ring 6"] or ["deactivate 3"]. *)

type topology =
  | Line of int
  | Ring of int  (** n >= 3 *)
  | Grid of int * int
  | Star of int
  | Complete of int
  | Btree of int
  | Chain of int * int  (** [Chain (groups, group_size)] — clique chain (E4) *)
  | Loop of int * int  (** like [Chain] but closed into a loop *)
  | Er of int * float * int  (** [Er (n, p, seed)] — G(n,p) from its own seed *)

(** Mobility models a schedule may install mid-run (the fuzzing-sized
    counterparts of the {!Dgs_mobility} presets). *)
type mob_model = Mob_waypoint | Mob_walk | Mob_highway | Mob_manhattan

type action =
  | Pause of float  (** advance simulation time *)
  | Deactivate of int  (** node crashes, memory kept *)
  | Activate of int  (** crashed node resumes with stale state *)
  | Reset of int  (** node reboots with fresh state *)
  | Remove of int  (** node leaves for good (also leaves the topology) *)
  | Add of int  (** a brand-new node appears (isolated until wired) *)
  | Set_loss of float  (** channel loss rate from now on *)
  | Add_edge of int * int
  | Remove_edge of int * int
  | Mob_start of mob_model * float
      (** [Mob_start (model, speed)] — (re)install a mobility model over
          the nodes currently in the topology, seeded from the scenario
          seed; positions replace the edge set on the next [Mob_step] *)
  | Mob_step of int
      (** advance the installed model by that many unit steps, rewiring
          the unit-disk topology and running one compute period after
          each; a no-op when no model is installed *)
  | Ramp_loss of float * int
      (** [Ramp_loss (target, steps)] — stair the channel loss linearly
          from its current rate to [target] over [steps] compute
          periods *)
  | Ramp_corruption of float * int
      (** same staircase for the frame-corruption probability *)

type t = {
  seed : int;  (** feeds timer phases, channel and corruption streams *)
  dmax : int;
  loss : float;  (** initial channel loss rate *)
  corruption : float;  (** frame corruption probability *)
  topology : topology;
  actions : action list;
}

val build : topology -> Dgs_graph.Graph.t
(** Materialize the initial topology. *)

val generate : Dgs_util.Rng.t -> max_actions:int -> t
(** Sample a random scenario: a topology family, channel parameters and
    between 1 and [max_actions] actions.  Consumes the given generator;
    the scenario's own [seed] is drawn from it.  This is the legacy
    fixed-distribution generator (it never emits mobility or ramp
    actions); its stream is pinned byte-identical across releases so
    seed-reported campaigns reproduce.  Coverage-guided campaigns use
    {!generate_weighted}. *)

(** {2 Action families and weighted generation}

    The coverage-guided fuzzer samples each action's {e family} from an
    explicit weight vector and evolves those weights between generations
    (see {!Coverage}).  [families] fixes the vocabulary and its order —
    the index of a family in this list is its index in every weight
    vector. *)

type family =
  | F_pause
  | F_deactivate
  | F_activate
  | F_reset
  | F_remove
  | F_add
  | F_set_loss
  | F_add_edge
  | F_remove_edge
  | F_mob_start
  | F_mob_step
  | F_ramp_loss
  | F_ramp_corruption

val families : family list
(** All families, in weight-vector order. *)

val family_name : family -> string
(** The action keyword ("pause", "mob-step", ...). *)

val family_of_action : action -> family

val generate_weighted :
  Dgs_util.Rng.t -> max_actions:int -> weights:float array -> t
(** Like {!generate} (same topology and channel prelude, same draws per
    family) but each action's family is drawn proportionally to [weights]
    (one strictly positive entry per {!families} element, in order; the
    vector need not be normalized).  The first mobility draw of a
    schedule always materializes as a [Mob_start] so a [Mob_step] never
    precedes its model.  Raises [Invalid_argument] on a malformed weight
    vector. *)

(** {2 Encoding} *)

val topology_to_string : topology -> string
val topology_of_string : string -> topology option
val action_to_string : action -> string
val action_of_string : string -> action option
(** Inverse of {!action_to_string}.  [None] on an unknown keyword, a
    malformed count, or a non-finite number ([pause inf], [loss nan]). *)

val to_string : t -> string
(** One-line JSON object, round-tripping exactly through {!of_string}:
    floats, including those inside the topology and action strings, are
    printed with {!Dgs_util.Json.num}. *)

val of_string : string -> t option
(** Parse {!to_string}'s encoding.  [None] on malformed JSON, an unknown
    topology or action, [dmax < 1], a loss or corruption rate outside
    [\[0,1\]], or a topology {!build} rejects (e.g. ["ring 2"]). *)

val save : string -> t -> unit
(** Write {!to_string} plus a trailing newline to a file. *)

val load : string -> t option
(** Read a scenario written by {!save}; [None] when {!of_string} is.  Raises
    [Sys_error] when the file cannot be opened. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
