(** Chrome trace_event ("Perfetto") JSON writer.

    Produces the JSON object format ({"traceEvents":[...]}) with one
    complete span ([ph = "X"]) per {!span} — [ts]/[dur] in microseconds,
    one lane per [tid] — loadable in [chrome://tracing] and
    [ui.perfetto.dev].  perfbench writes its [--trace 1] pass with it
    (docs/OBSERVABILITY.md). *)

type span = { name : string; ts_us : float; dur_us : float; tid : int }

val to_string : ?thread_names:(int * string) list -> span list -> string
(** Serialize, every event in process 0; [thread_names] adds one
    [ph = "M"] [thread_name] metadata row per [(tid, label)] so viewers
    label the lanes. *)

val write : string -> ?thread_names:(int * string) list -> span list -> unit
(** [write path ... spans] writes {!to_string} to [path]. *)
