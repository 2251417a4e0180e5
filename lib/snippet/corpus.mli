(** Multi-document corpora.

    The demo web site lets the user pick among several XML data sets
    ("movies and stores", §4); a corpus holds several analyzed databases
    under names and runs one query across all of them, merging the hits.
    Cross-document ranking uses each database's own XRank-style scores —
    IDF statistics are per-document, which matches how federated keyword
    search is usually approximated. The named corpus, the live overlay
    ({!Live_corpus}) and a shard set ({!Shard_set}) all query through
    {!query}, each over its own list of {!segment}s. *)

type t

type segment = {
  db : Pipeline.t;
  mask : (int * int) array option;  (** see {!Extract_search.Eval_ctx.make} *)
  source : Extract_search.Result_tree.t -> string option;
      (** a result's label, or [None] to drop it as no answer *)
  to_global : int -> int;  (** result root to {!hit.global_root} *)
}

type hit = {
  source : string;
  segment : int;  (** index into the list given to {!query} *)
  score : float;
  global_root : int;
  result : Pipeline.snippet_result;
}

val query :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  ?fan_out:(int -> (int -> unit) -> unit) ->
  segment list ->
  string ->
  hit list
(** Rank globally, then snippet only the winners, under one request id.
    Phase 1 searches each segment, drops the results [source] rejects
    and scores the rest with the segment's own ranker, applied to the
    query once per segment ({!Extract_search.Ranker.score}); [fan_out n f]
    calls [f i] once per segment [i < n], on any domain (default: in
    order, on the caller's). All answers take one order: decreasing
    score, then label, then segment, then document order. Phase 2
    snippets only the first [limit] ({!Pipeline.snippets}, under each
    segment's phase-1 context), so the deadline ladder and the stage
    observer apply as in {!Pipeline.run}. *)

val empty : t

val add : t -> name:string -> Pipeline.t -> t
(** Functional add; replaces any database previously registered under the
    same name. *)

val of_list : (string * Pipeline.t) list -> t

val names : t -> string list
(** Registered names, alphabetical. *)

val find : t -> string -> Pipeline.t option

val size : t -> int

val load_file : ?on_warning:(string -> unit) -> string -> Pipeline.t
(** Load one database from [path], whatever it holds: a snapshot image
    written by [extract pack], or XML ({!Extract_store.Snapshot.is_image}
    dispatches on the leading magic; anything else is parsed as XML). An
    image is only a cache of its XML source, so a corrupt or outdated one
    ({!Extract_store.Codec.Corrupt}: bad checksum, old format version,
    truncation, injected fault) is not fatal when a sibling XML source
    ([foo.xml] or [foo] next to [foo.snap]) still exists — [on_warning]
    is told and the database is rebuilt from the source. With no sibling
    to rebuild from, the original exception is re-raised. *)

val run :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  t ->
  string ->
  hit list
(** {!query} over one segment per database, labelled with its name, in
    name order. [deadline] is shared across the databases: once it
    expires, remaining snippets degrade ({!Pipeline.run}). *)
