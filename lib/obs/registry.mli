(** Process-wide metrics registry.

    One registry per process, holding three metric kinds:

    - {e counters} — monotonically increasing integers (requests served,
      cache hits, bytes read);
    - {e gauges} — instantaneous floats (cache occupancy, capacity);
    - {e histograms} — fixed-bucket latency/size distributions with a
      cumulative-bucket readout and estimated percentiles.

    Metrics are identified by a name plus an ordered label list
    ([("stage", "build")]); registering the same identity twice returns
    the same metric, so modules can create their handles at
    initialization time without coordination. Registering an existing
    identity as a different kind raises [Invalid_argument].

    {b Locking.} Every registration, update and render takes one global
    mutex, so the server's worker domains and the runtime sampler
    thread can record concurrently without torn reads; renders observe a
    consistent snapshot. Updates are far off any per-node hot loop (they
    fire per stage, per request or per cache probe), so the single lock
    is not a scaling concern.

    The registry has no external dependencies and costs nothing until a
    metric is touched. *)

type counter

type gauge

type histogram

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or fetch) the counter [name] with [labels] (default none). *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  string ->
  histogram
(** Register (or fetch) a histogram. [buckets] are the inclusive upper
    bounds of the finite buckets, strictly increasing; an implicit [+Inf]
    overflow bucket is always appended. Default:
    {!default_latency_buckets}.
    @raise Invalid_argument on empty or non-increasing [buckets], or when
    re-registering an existing histogram with different buckets. *)

val default_latency_buckets : float array
(** 10µs … 10s, roughly logarithmic — suitable for request and stage
    latencies in seconds. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** [add c n] adds [n] (≥ 0; negative deltas raise [Invalid_argument] —
    counters are monotonic). *)

val counter_value : counter -> int

val set : gauge -> float -> unit

val pin : gauge -> float -> unit
(** [pin g v] sets [g] to [v] and marks it pinned: {!reset} restores [v]
    instead of zeroing it. For process facts ({!val-version}, start
    time) that must survive test-isolation resets. Re-pinning replaces
    the pinned value. *)

val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Record one observation (typically seconds). *)

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h q] with [0 < q <= 1]: the estimated [q]-quantile,
    linearly interpolated within the bucket that holds the target rank
    (the classic Prometheus [histogram_quantile] estimate). Observations
    in the [+Inf] overflow bucket clamp to the largest finite bound. [0.]
    when the histogram is empty.
    @raise Invalid_argument when [q] is outside [(0, 1]]. *)

val render_prometheus : unit -> string
(** All registered metrics in the Prometheus text exposition format
    ([# HELP]/[# TYPE] per family; histograms as cumulative [_bucket]
    series plus [_sum]/[_count]). Families and series are sorted, so the
    output is deterministic for a given set of values. *)

val render_json : unit -> string
(** The same snapshot as a JSON object:
    [{"counters": [...], "gauges": [...], "histograms": [...]}], each
    entry carrying name, labels and values (histograms: count, sum and
    p50/p95/p99 estimates). *)

val reset : unit -> unit
(** Zero every registered metric's value, keeping registrations (module
    initializers hold metric handles) and restoring pinned gauges (see
    {!pin}). Test isolation only. *)

val version : string
(** The release version baked into [extract_build_info] and reported by
    the CLI. *)
