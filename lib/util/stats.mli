(** Small descriptive-statistics helpers used by the experiment harness. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
}

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Sample standard deviation; 0 when fewer than two samples. *)

val percentile : float -> float list -> float
(** [percentile p xs] for [p] in [\[0,1\]], by linear interpolation on the
    sorted samples.  Raises [Invalid_argument] on the empty list. *)

val median : float list -> float

val summarize : float list -> summary
(** Full summary; all fields are 0 on the empty list. *)

val pp_summary : Format.formatter -> summary -> unit
(** Renders as ["mean ± sd [min,max]"] with two decimals. *)
