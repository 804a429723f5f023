(** Messages broadcast to the neighborhood on each [Ts] expiration.

    Per the paper ("send(listv with priorities)"), a message carries the
    sender's ancestor list, the node priorities of every node appearing in
    it, and the sender's group priority (used when a too-far conflict is a
    group-merging contest rather than an intra-group one).

    The priorities travel flat: two parallel arrays sorted by node id, the
    form receivers merge linearly into their own priority table.  A
    message is immutable once made; its arrays may be shared with the
    sender's table and must never be written. *)

type t = {
  sender : Node_id.t;
  antlist : Antlist.t;
  priority_ids : Node_id.t array;  (** strictly increasing node ids *)
  priorities : Priority.t array;
      (** [priorities.(i)] is the priority reported for [priority_ids.(i)] *)
  group_priority : Priority.t;
  view : Node_id.Set.t;
      (** the sender's current view — its established group.  The joint
          admission pass sizes foreign groups by their view extent rather
          than their speculative list extent (DESIGN.md Section 5). *)
}

val make :
  sender:Node_id.t ->
  antlist:Antlist.t ->
  priority_ids:Node_id.t array ->
  priorities:Priority.t array ->
  group_priority:Priority.t ->
  view:Node_id.Set.t ->
  t
(** [priority_ids] must be strictly increasing (not checked).
    @raise Invalid_argument when the two arrays differ in length. *)

val priority_arrays : (Node_id.t * Priority.t) list -> Node_id.t array * Priority.t array
(** The parallel arrays of a list of bindings: sorted by id, and on a
    duplicated id the last binding wins — the table a left fold of
    [Map.add] over the list would build. *)

val priority_bindings : t -> (Node_id.t * Priority.t) list
(** The reported priorities in id order. *)

val pp : Format.formatter -> t -> unit
