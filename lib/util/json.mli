(** The one JSON codec behind every file format of the repository: JSONL
    traces, scenario repros, oracle reports and metrics snapshots.

    Output is compact (no whitespace) with object keys in the given order,
    so equal values encode to equal bytes.  Strings are byte strings:
    [to_string] escapes the double quote, the backslash and the control
    characters below 0x20 and copies every other byte (UTF-8 passes
    through unchanged); [of_string] decodes the standard escapes, [\u]
    only below 0x80. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val num : float -> string
(** The number rule: an integral value below 1e15 in magnitude prints as
    an integer; any other value prints with [%.15g] when that reads back
    exactly, else with [%.17g].  [float_of_string (num x) = x] for every
    finite [x].  Non-finite values print as OCaml's [nan]/[inf], which
    {!of_string} rejects. *)

val to_string : t -> string

val of_string : string -> t option
(** Parse one JSON value; surrounding whitespace is allowed, anything
    else after the value is rejected. *)

val field : string -> t -> t option
(** [field k (Obj kvs)] is the first value bound to [k]; [None] when [k]
    is absent or the value is not an object. *)
