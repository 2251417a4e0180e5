(** Chrome trace-event export.

    Renders a {!Trace} span forest as the Trace Event JSON Array Format
    loadable by [chrome://tracing] and {{:https://ui.perfetto.dev}
    Perfetto}: [{"traceEvents": [...], "displayTimeUnit": "ms"}] with
    one complete event ([ph: "X"]) per span. Timestamps and durations
    are microseconds on the {!Extract_util.Deadline} monotonic clock,
    rebased so the earliest span in the export starts at 0 (keeping
    microsecond precision through float rendering);
    [pid] is always 0 and [tid] is the OCaml domain id the span ran on,
    so the server's worker domains render as parallel tracks. The request
    id and span labels appear in each event's [args]. *)

val json : Trace.span list -> Jsonv.t
(** The trace document as a JSON value. *)

val render : Trace.span list -> string
(** {!json} rendered compactly — the payload written by
    [extract snippet --trace-out] and served at [/debug/trace]. *)
