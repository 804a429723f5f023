(** Marks on list entries (paper Section 4.1).

    Marks implement the link-symmetry triple handshake and the rejection of
    incompatible neighbors:

    - [Single] (written [ū] in the paper): the local node hears [u] but has
      not yet seen itself in [u]'s list — the link is not known symmetric.
    - [Double] (written [ū̄]): [u]'s list was rejected ([u] is an
      incompatible neighbor, or provided a too-far node that won the
      priority contest); [u] and the local node cannot share a group.

    Marked entries are link-local: receivers strip every marked node except
    themselves, so marks never travel more than one hop. *)

type t = Clear | Single | Double

val compare : t -> t -> int
(** Orders by severity: [Clear < Single < Double]. *)


val max : t -> t -> t
(** Most severe of the two. *)

val is_marked : t -> bool
(** [true] for [Single] and [Double]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
