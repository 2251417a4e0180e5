(** Multi-document sharding: split one corpus into N independently
    analyzed shards and query them as one {!Corpus.query}, one segment
    per shard. Every phase runs on the caller's domain: a query spawns
    no domain, so a server's worker pool is the only executor it uses.

    A shard is built from a contiguous group of the global root's child
    subtrees: shard-local node 0 is a copy of the global root, local ids
    [1..len] are the global block [[global_first, global_last]] shifted
    down, so provenance is two integers per shard and translating a
    result root back to a global node id is one addition
    ({!to_global}). Depths, tags and texts are unchanged; only parents
    shift (the group's top-level children re-parent to the shard root).

    Divergence from unsharded evaluation, by design: results rooted at
    the shard-local root are dropped — such a root stands for only part
    of the real document root, so its subtree (and any snippet built
    from it) would silently miss the other shards' content. Queries
    whose only connection runs through the global root therefore return
    fewer results than {!Corpus.run} over the whole corpus; everything
    rooted strictly below the top-level children is identical (test
    suite [shard.query]). The drop happens before ranking, so it never
    costs a real answer its place under [limit].

    Persistence is a directory: one v2 {!Extract_store.Snapshot} per
    shard plus a sealed manifest ([shards.manifest], magic
    ["XTRSHRDS"]) recording each shard's file and provenance interval —
    so a sharded corpus cold-starts as N O(1) mappings. *)

type t

val split : ?shards:int -> Pipeline.Document.t -> t
(** Partition [doc] into at most [shards] (default 4) shards of roughly
    equal node weight, analyzing and indexing each
    ({!Pipeline.build}). The shard count is clamped to the number of
    top-level children; a document with one child yields one shard. *)

val shard_count : t -> int

val shard_db : t -> int -> Pipeline.t

val provenance : t -> int -> int * int
(** [(global_first, global_last)] — the inclusive global node-id block
    shard [i]'s local ids [1..] map onto. *)

val to_global : t -> shard:int -> int -> int
(** Translate a shard-local node id to the global id (local 0 — the
    copied root — maps to global 0). *)

val translate_mask : t -> shard:int -> (int * int) array -> (int * int) array
(** Project a global visibility mask (see {!Extract_search.Eval_ctx})
    onto one shard: intersect with the shard's block, shift to local
    ids, and keep the local root visible iff the global root is. A mask
    that hides the whole block yields [[|(0, 0)|]] — every posting
    filtered, no results, matching the global evaluation of that
    region. *)

type hit = Corpus.hit = {
  source : string;  (** ["shard-N"], zero-padded so labels sort in shard order *)
  segment : int;  (** the shard index *)
  score : float;
  global_root : int;  (** the result root translated via {!to_global} *)
  result : Pipeline.snippet_result;
}

val run :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?mask:(int * int) array ->
  ?deadline:Extract_util.Deadline.t ->
  ?parallel:bool ->
  t ->
  string ->
  hit list
(** {!Corpus.query} over one segment per shard, on the caller's domain.
    Phase 1 searches and scores every shard-level answer, shard by
    shard; phase 2 snippets only the [limit] best answers overall. Best
    first, ties toward the lower shard index. [mask] is a global-id
    mask, translated per shard. [deadline] degrades the winners'
    snippets exactly like a flat query. [parallel] selects nothing and
    is ignored; it remains only so existing callers still compile. When
    tracing, each shard records one [shard.run{shard=i}] span for its
    phase 1, a child of the caller's open span on the caller's domain
    with the caller's request id; phase-2 spans carry no shard. *)

(** {1 Persistence} *)

val save_dir : string -> t -> unit
(** Write [dir/shards.manifest] plus one [dir/shard-NN.snap] snapshot
    image per shard. Creates [dir] if missing. Every file goes through
    {!Extract_store.Durable.replace_atomic} (temp, fsync, rename,
    directory fsync) and the manifest is written last, so a manifest
    that survives a crash names only shard images already on disk. *)

val load_dir : string -> t
(** Load a directory written by {!save_dir}: maps every shard snapshot
    ({!Extract_store.Snapshot.load}) and re-derives the cheap analysis
    ({!Pipeline.of_parts}).
    @raise Extract_store.Codec.Corrupt on a damaged manifest or
    snapshot, and [Codec.Truncated] on an empty manifest (path and
    magic named). *)

val is_shard_dir : string -> bool
(** [true] iff [path] is a directory containing [shards.manifest]. *)
