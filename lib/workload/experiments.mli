(** Registry of the experiments — one entry per table/figure of DESIGN.md's
    experiment index.  [grp_sim experiment] dispatches through this list.

    Every experiment is a pure function of its (hard-coded) seeds, so the
    tables are reproducible; [jobs] (default [1]) only chooses how many
    domains the independent repetitions are spread over — the rows are
    identical for every value (see {!Dgs_parallel.Pool}). *)

type t = {
  id : string;  (** "e1" .. "e13" *)
  title : string;
  run : ?quick:bool -> ?jobs:int -> unit -> Dgs_metrics.Table.t list;
}

val all : t list
val find : string -> t option
