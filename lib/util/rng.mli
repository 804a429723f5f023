(** Deterministic splittable pseudo-random number generator.

    The simulator must be fully reproducible from a single integer seed, so
    we avoid [Stdlib.Random] global state and implement splitmix64.  Each
    subsystem (mobility, channel, churn, workload) receives its own stream
    obtained with {!split}, which keeps experiments insensitive to the order
    in which subsystems draw numbers. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t] once. *)

val split_at : t -> int -> t
(** [split_at t i] is the generator the [(i+1)]-th call of {!split} would
    return, computed directly from [t]'s current state {e without} advancing
    it.  [split_at t 0 = split (copy t)], [split_at t 1] equals the second
    sequential split, and so on.  Because the derivation is a pure function
    of [(state, i)], a parallel campaign can hand task [i] its stream in any
    scheduling order and still reproduce the sequential campaign exactly. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing it. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val check_rate : string -> float -> unit
(** [check_rate what p] returns when [0 <= p <= 1] and raises
    [Invalid_argument (what ^ " out of [0,1]")] otherwise, NaN included —
    the one validation of every probability a runner hands to
    {!bernoulli}.  [what] names the caller and the rate, e.g.
    ["Net.set_loss: rate"]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate (Box–Muller). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform permutation of [0..n-1]. *)
