(** Span-based tracing with monotonic timestamps.

    A span covers one named unit of work ([pipeline.search],
    [eval_ctx.resolve]); spans opened while another span is running
    become its children, so a traced request yields a tree mirroring the
    call structure. Timestamps come from the monotonized
    {!Extract_util.Deadline} clock (so the injected test clock drives
    deterministic traces too).

    Tracing is {b off by default} and costs one atomic read plus one
    domain-local read per {!with_span} when off. When on, each span
    allocates a small record; the current-span stack is per-domain
    (domain-local storage), so the server's worker domains trace their
    requests independently without interleaving: a request's span tree
    is a plain stack on the domain that serves it. Completed root spans
    land in a bounded global buffer (newest kept, oldest dropped; see
    {!set_buffer_capacity}) under a mutex, in completion order. *)

type span = {
  name : string;
  start : float; (** seconds, {!Extract_util.Deadline.now} clock *)
  duration : float; (** seconds *)
  rid : string option;
      (** the {!Reqid} current when the span opened, so a span tree
          correlates with the same query's log lines and slowlog entry *)
  dom : int; (** id of the domain the span ran on (Chrome-trace tid) *)
  args : (string * string) list;
      (** structured labels ([("shard", "2")]), rendered inline and
          exported to the Chrome trace [args] object *)
  children : span list; (** in start order *)
}

val set_enabled : bool -> unit
(** Turn tracing on or off process-wide. Turning it off does not clear
    already-collected roots. *)

val enabled : unit -> bool

val recording : unit -> bool
(** True when spans opened now would be recorded: tracing is enabled
    process-wide {e or} this domain is inside {!with_recording}. *)

val with_recording : (unit -> 'a) -> 'a
(** [with_recording f] records spans opened by [f] on this domain even
    while process-wide tracing is off — the per-request sampling hook
    ({!sampled}) used by the server. Restores the previous state, also
    on exceptions. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], recording a span when {!recording}. The
    span is recorded (and the stack unwound) even when [f] raises. *)

val add_span :
  ?args:(string * string) list ->
  ?rid:string ->
  string ->
  start:float ->
  duration:float ->
  unit
(** Record an already-measured interval as a span — work that happened
    before any span could be opened, like the time a connection sat in
    the accept queue. Attaches to the currently open span on this domain
    (or becomes a root). [rid] defaults to the current {!Reqid};
    negative durations clamp to [0.]. No-op unless {!recording}. *)

val finished : unit -> span list
(** The root spans completed so far, oldest first, and clears them. Spans
    still open are not included. *)

val recent : ?last:int -> unit -> span list
(** Like {!finished} but non-destructive: the buffered roots, oldest
    first, optionally only the newest [last]. *)

val clear : unit -> unit
(** Drop collected roots and this domain's open-span stack. *)

val set_buffer_capacity : int -> unit
(** Cap the root buffer at [n] (≥ 1) spans; older roots are dropped as
    new ones complete. Default 512 — a server under sampling keeps a
    bounded window instead of leaking. *)

val buffer_capacity : unit -> int

val set_sample_interval : int -> unit
(** [set_sample_interval n]: make {!sampled} return true once every [n]
    calls ([0] disables sampling, the default). Resets the phase so the
    next call samples. *)

val sample_interval : unit -> int

val sampled : unit -> bool
(** Deterministic 1-in-N sampling decision (atomic counter, so exactly
    one of every [n] calls across all domains returns true). Always
    false while the interval is 0. *)

val install_from_env : unit -> unit
(** Read [EXTRACT_TRACE_SAMPLE] ("1/N" or plain "N") and set the sample
    interval. Malformed or missing values leave it unchanged. *)

val pp_duration : float -> string
(** Human form of a duration in seconds: ["1.24ms"], ["16.0us"],
    ["2.1s"]. *)

val render : span list -> string
(** The span forest as an indented tree, one line per span: two spaces
    per depth, the name (suffixed ["{k=v}"] when the span carries args,
    [" [rid]"] when it carries a request id), then the duration
    right-padded — the shape printed by [extract snippet --trace]. *)
