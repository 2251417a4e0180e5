(** Per-query request ids.

    A request id ("q000042") names one query end to end: the structured
    log lines it emits ({!Log}), the trace spans it opens ({!Trace}), the
    explain bundle it produces and its slowlog entry all carry the same
    id, so one grep correlates them. Ids are sequential per process —
    the process is the whole correlation domain, so short monotonic
    tokens beat UUIDs for terminal reading.

    The {e current} id is domain-local: scopes on different domains
    (the server's worker domains) never interfere. *)

val fresh : unit -> string
(** A new unique id ("q000001" first). Does not set the current id. *)

val current : unit -> string option
(** The id of the enclosing {!with_id}/{!ensure} scope on this domain. *)

val with_id : string -> (unit -> 'a) -> 'a
(** [with_id id f] runs [f] with [id] as the current id, restoring the
    previous id afterwards (also on exceptions). Scopes nest. *)

val ensure : (string -> 'a) -> 'a
(** [ensure f] calls [f rid] under a current id: the enclosing scope's id
    when one is already set (the server stamped one per request), else a
    fresh id scoped to this call (the CLI path). *)

val reset_counter : unit -> unit
(** Restart numbering at "q000001". Test isolation and the CLI's
    per-invocation determinism; never call while queries are in flight. *)
