(** End-to-end driver: the whole Fig. 4 architecture behind two calls.

    [build] runs the offline side — Data Analyzer (dataguide, star
    inference, node classification), key mining, Index Builder. [run]
    executes the online side for one query: search engine → per-result
    IList (Return Entity Identifier, Query Result Key Identifier, Dominant
    Feature Identifier) → Instance Selector → snippet trees. *)

module Document = Extract_store.Document

type t
(** An analyzed, indexed database. *)

val build : Document.t -> t

val of_xml_string : string -> t
(** Parse, analyze and index an XML string. *)

val of_file : string -> t

val save : string -> t -> unit
(** Persist the arena and the inverted index as one bundle
    ({!Extract_store.Persist.save_bundle}); classification and keys are
    rebuilt on {!load} (they are cheap and fully derived). *)

val load : string -> t
(** Load a bundle written by {!save}.
    @raise Extract_store.Codec.Corrupt on malformed input. *)

val of_parts : Document.t -> Extract_store.Inverted_index.t -> t
(** Analyze an arena that already has its index (what {!load} does after
    decoding, and how {!Live_corpus} wraps the live store's segments):
    classification and keys are derived, the given index is reused. *)

val save_snapshot : string -> t -> unit
(** Persist as a v2 mmap snapshot ({!Extract_store.Snapshot.save}) —
    [extract pack]'s format. Unlike {!save}, {!load_snapshot} maps the
    arena instead of decoding it, so cold-start is O(1) in the corpus. *)

val load_snapshot : string -> t
(** Map a snapshot written by {!save_snapshot}; the cheap analysis is
    re-derived like {!load}.
    @raise Extract_store.Codec.Corrupt on structural damage. *)

val id : t -> int
(** Unique id of this analyzed database (process-wide, assigned at
    {!build}/{!load}). {!Snippet_cache} keys embed it so one cache can
    serve several databases without collisions. *)

val document : t -> Document.t

val kinds : t -> Extract_store.Node_kind.t

val keys : t -> Extract_store.Key_miner.t

val index : t -> Extract_store.Inverted_index.t

val dataguide : t -> Extract_store.Dataguide.t

type snippet_result = {
  result : Extract_search.Result_tree.t;
  ilist : Ilist.t;
  selection : Selector.selection;
  degraded : bool;
      (** [true] when the per-request deadline expired (or a
          ["pipeline.snippet"] fault fired) before this result's turn: the
          snippet is the cheap {!Naive_baseline} truncation, [ilist] is
          {!Ilist.empty} and [selection] carries no coverage accounting.
          Callers surface this rather than failing the whole request. *)
}

(** {1 Stage observation}

    A seam for opt-in invariant assertions at pipeline stage boundaries:
    {!Extract_check.Check.install_from_env} installs an observer when the
    [EXTRACT_CHECK] environment variable is set. With no observer
    installed (the default) the hooks cost one reference read. *)

type observer = {
  on_built : t -> unit;
      (** After {!build}/{!load}: the analyzed database is complete. *)
  on_results : t -> Extract_search.Result_tree.t list -> unit;
      (** After the search engine, before snippet generation. *)
  on_snippets : t -> snippet_result list -> unit;
      (** After snippet generation, before results are returned. *)
}

val set_observer : observer option -> unit
(** Install (or with [None] remove) the process-wide stage observer. *)

val default_bound : int
(** 10 edges, the demo's default ballpark. *)

(** {1 Deadlines}

    Every run variant takes an optional [?deadline]
    ({!Extract_util.Deadline.t}, default {!Extract_util.Deadline.never}).
    The deadline is checked once per result, before that result's snippet
    work starts: results reached after expiry degrade to the
    {!Naive_baseline} snippet (tagged [degraded = true]) instead of
    aborting the request. A request therefore always returns one snippet
    per search result — the tail of the list just gets cheaper snippets
    when the budget runs out. *)

val run :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  ?mask:(int * int) array ->
  t ->
  string ->
  snippet_result list
(** [run t query_string] — the full demo interaction of Fig. 5. Defaults:
    XSeek semantics, [default_bound], no result limit, no deadline. One
    {!Extract_search.Eval_ctx} is built per call: every keyword's posting
    list is resolved exactly once and shared by the engine, IList
    construction and query-biased scoring. [mask] (here and on every run
    variant) restricts evaluation to visible node-id intervals — see
    {!Extract_search.Eval_ctx.make}; the live corpus passes the interval
    set that hides tombstoned members. *)

(** {1 Stages}, for {!Corpus.query}, which ranks before it snippets *)

val search_ctx :
  ?semantics:Extract_search.Engine.semantics ->
  ?limit:int ->
  ?mask:(int * int) array ->
  t ->
  string ->
  Extract_search.Eval_ctx.t * Extract_search.Result_tree.t list
(** The search stage of {!run}: its evaluation context and results. *)

val snippets :
  ?config:Config.t ->
  ?bound:int ->
  ?deadline:Extract_util.Deadline.t ->
  t ->
  Extract_search.Eval_ctx.t ->
  Extract_search.Result_tree.t list ->
  snippet_result list
(** The snippet stage of {!run} for results found under the context. *)

val scoped : string -> snippets:('a -> snippet_result list) -> (unit -> 'a) -> 'a
(** [scoped query ~snippets f] runs [f] as one query, as every run
    variant does: under one request id, logging [query.done] with the
    counts of [snippets] of its output. *)

val run_differentiated :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  ?mask:(int * int) array ->
  t ->
  string ->
  snippet_result list
(** Like {!run}, but after building every result's IList the
    {!Differentiator} re-ranks dominant features by cross-result
    distinctiveness, so the snippets of a multi-result answer emphasize
    what sets each result apart. {!Feature.analyze} runs exactly once per
    result: the same analysis feeds the differentiator and that result's
    IList. Degraded results take no part in cross-result scoring. *)

val search :
  ?semantics:Extract_search.Engine.semantics ->
  ?limit:int ->
  ?mask:(int * int) array ->
  t ->
  string ->
  Extract_search.Result_tree.t list
(** Search only (no snippets). *)

val snippet_of :
  ?config:Config.t ->
  ?bound:int ->
  t ->
  Extract_search.Result_tree.t ->
  Extract_search.Query.t ->
  snippet_result
(** Snippet generation for one externally produced query result — the
    paper's orthogonality claim: results may come from any engine. *)

val ilist_of :
  ?config:Config.t ->
  t ->
  Extract_search.Result_tree.t ->
  Extract_search.Query.t ->
  Ilist.t
