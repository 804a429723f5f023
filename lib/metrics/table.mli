(** ASCII tables for the experiment reports — the "rows the paper prints".

    A table has a title, a header and string cells; columns are padded to
    their widest cell.  {!to_csv} emits the same data for offline
    plotting. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] on a row whose width differs from the
    header. *)

val add_rows : t -> string list list -> unit
val row_count : t -> int

val cell_float : ?decimals:int -> float -> string
val cell_int : int -> string
val cell_summary : Dgs_util.Stats.summary -> string
(** "mean ± sd" with two decimals. *)

val render : t -> string
val print : t -> unit
(** Render to stdout with a trailing newline. *)

val to_csv : t -> string
