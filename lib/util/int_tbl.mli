(** Hash tables keyed by ints, hashing a key to itself: a lookup is a
    mask and a bucket walk, with no call into the polymorphic hash or
    [compare].  The node tables of the graph, simulator and protocol
    layers are keyed by it. *)

include Hashtbl.S with type key = int
