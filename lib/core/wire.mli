(** Text wire format for GRP messages.

    The paper's implementation (the authors' Airplug suite) exchanges text
    frames between processes; this module provides an equivalent
    serialization so the simulator can exercise the full
    encode-corrupt-decode path and the fault-injection experiments can
    corrupt frames in flight.

    Frame grammar (one line, [|]-separated fields):

    {v GRP1|<sender>|<antlist>|<priorities>|<group-priority>|<view> v}

    where the antlist is [/]-separated levels of [,]-separated entries,
    an entry being a decimal id with mark suffix [']/[''], priorities are
    [,]-separated [id:oldness.id] pairs, and the view is [,]-separated
    ids.  Every id, wherever it appears, must lie in [[0, 2^60)] (the
    range {!Antlist} packs); priorities are read with the semantics of a
    left [Map.add] fold — any order, last binding of an id wins.
    {!of_string} is total: any malformed frame yields [None], never
    an exception — a corrupted frame is equivalent to a lost one, and a
    frame corrupted into validity is handled by the protocol's own checks
    ([goodList] and friends), exactly like a corrupted memory. *)

val to_string : Message.t -> string

val of_string : string -> Message.t option
(** Inverse of {!to_string} on well-formed frames. *)

val corrupt : Dgs_util.Rng.t -> ?mutations:int -> string -> string
(** Flip [mutations] (default 1) random bytes to random printable
    characters — the transmission-error model for the fault-injection
    experiments. *)
