(** Polymorphic min-priority queue (pairing heap).

    The discrete-event engine's event agenda.  [add] is O(1) and
    [pop_if] amortized O(log n). *)

type ('prio, 'a) t
(** Mutable queue holding values of type ['a] keyed by ['prio]. *)

val create : cmp:('prio -> 'prio -> int) -> ('prio, 'a) t
(** [create ~cmp] makes an empty queue ordered by [cmp] (smallest first). *)

val add : ('prio, 'a) t -> 'prio -> 'a -> unit
(** Insert an element. *)

val pop_if : ('prio, 'a) t -> ('prio -> bool) -> ('prio * 'a) option
(** [pop_if t pred] removes and returns the smallest element when [pred]
    holds on its key, and returns [None] (removing nothing) otherwise,
    including on an empty queue — a peek and a pop fused into one root
    traversal. *)
