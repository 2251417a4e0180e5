(** Queryable face of the crash-safe live store.

    Wraps {!Extract_store.Live} with analyzed pipelines so a corpus that
    accepts online updates can be searched exactly like a static
    {!Corpus}: one query runs against the masked base arena plus every
    live delta segment, and the merged hits carry member-document names.

    Readers are lock-free — each query reads one atomic snapshot of the
    query view and is untouched by concurrent updates. Updates serialise
    on this module's own writer lock (taken {e before} the store's; the
    store lock is the leaf) and swap in a refreshed view that reuses
    every pipeline whose arena did not change — an add re-analyzes only
    the added document.

    A query is a {!Corpus.query} over the view's segments: the masked
    base, whose results are labelled with the member they fall in, then
    one segment per delta, labelled with its name. Results whose root is
    the synthetic corpus root are dropped before ranking: an LCA that
    only exists by joining two member documents is not a result of
    either. Scores come from each segment's own ranker, like the static
    corpus's per-database scoring. *)

type t

type hit = Corpus.hit = {
  source : string;  (** member-document name the hit comes from *)
  segment : int;  (** 0 is the base, unless its visibility mask is empty *)
  score : float;
  global_root : int;  (** result root in its segment's arena *)
  result : Pipeline.snippet_result;
}

val open_dir : ?read_only:bool -> ?on_warning:(string -> unit) -> string -> t
(** Open and recover a live-store directory
    ({!Extract_store.Live.open_dir}) and analyze its base. *)

val close : t -> unit

val store : t -> Extract_store.Live.t
(** The underlying store — for [extract check] and stats. *)

val generation : t -> int

val names : t -> string list
(** Visible member names, base members first then live additions. *)

val add : t -> name:string -> xml:string -> unit
(** Journalled add/replace ({!Extract_store.Live.add}) plus query-view
    refresh. Raises as the store does on bad XML or a bad name. *)

val remove : t -> string -> bool

val compact : t -> int
(** Fold updates into a new snapshot generation; the base pipeline is
    re-analyzed once. Returns the new generation. *)

val run :
  ?semantics:Extract_search.Engine.semantics ->
  ?config:Config.t ->
  ?bound:int ->
  ?limit:int ->
  ?deadline:Extract_util.Deadline.t ->
  t ->
  string ->
  hit list
(** {!Corpus.query} over one snapshot of the query view: the base under
    its visibility mask, then every delta. *)
