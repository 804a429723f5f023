(** Integer sets shared by the graph and protocol layers, so that node sets
    flow between them without conversion. *)

include Set.S with type elt = int
