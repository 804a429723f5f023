(** Node identities.

    The paper assumes unique, comparable node identifiers; we use
    non-negative integers, which also index simulator arrays. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Set = Dgs_util.Int_set
module Map : Map.S with type key = t

module Tbl = Dgs_util.Int_tbl
(** Hash tables keyed by id, hashing an id to itself. *)

val set_of_list : t list -> Set.t
val pp_set : Format.formatter -> Set.t -> unit
