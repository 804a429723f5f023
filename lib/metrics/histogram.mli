(** Fixed-width-bin histograms for distribution reporting (group sizes,
    lifetimes). *)

type t

val create : ?bin_width:float -> unit -> t
(** Default bin width 1.0 (integer-valued data). *)

val add : t -> float -> unit
val add_int : t -> int -> unit
val bin_width : t -> float
val count : t -> int
val mean : t -> float

val bins : t -> (float * int) list
(** Non-empty bins as [(lower_bound, count)], sorted. *)

val render : ?width:int -> t -> string
(** Simple horizontal bar chart, [width] characters for the modal bin. *)
