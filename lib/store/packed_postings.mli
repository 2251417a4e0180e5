(** Block-compressed posting lists.

    A posting list — the strictly ascending array of node ids where a
    keyword occurs — packed as delta+varint blocks of
    {!Codec.block_size} entries with a skip table of per-block first
    values. Packing is a storage encoding: the query path decodes a whole
    list with {!to_array} on each {!Inverted_index.lookup} and searches
    the plain array. The point probes below binary-search the skips and
    decode at most one block.

    Typical footprint is 1–2 bytes per posting against the 8 bytes of a
    plain [int array]; see DESIGN.md §15 and EXPERIMENTS.md E22. *)

type t

val empty : t

val of_array : int array -> t
(** Pack a strictly ascending array of non-negative node ids.
    @raise Invalid_argument if unsorted, duplicated, or negative. *)

val to_array : t -> int array
(** Full decode, in ascending order. *)

val length : t -> int
(** Number of postings. *)

val nblocks : t -> int

val byte_size : t -> int
(** Approximate resident bytes: compressed data + skip/offset tables. *)

val get : t -> int -> int
(** [get t i] is the [i]th posting (decodes one block).
    @raise Invalid_argument out of bounds. *)

(** {1 Point probes — mirror {!Postings} on node ids} *)

val lower_bound : t -> int -> int
(** Smallest index [i] with [get t i >= x], or [length t]. *)

val mem : t -> int -> bool

(** {1 Codec embedding} *)

val encode : Codec.writer -> t -> unit

val decode : Codec.reader -> t
(** @raise Codec.Corrupt on inconsistent block structure. *)
