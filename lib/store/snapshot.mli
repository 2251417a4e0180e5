(** The on-disk image: flat, offset-based arena snapshots, mapped on load.

    Every persisted database is one of these files — [extract pack]'s
    output, each shard of a [pack --shards] directory, and each
    generation ([gen-N.snap]) of a {!Live} store. A snapshot is a
    4096-byte header page followed by page-aligned sections: the arena's
    four int columns and text blob stored as raw native words/bytes, plus
    small {!Codec}-encoded sections — [meta] (DTD, tag names), [index]
    (vocabulary, {!Packed_postings}, tag-token pairs) and [members] (a
    live generation's number and [(name, root)] table; empty in every
    other image). {!load} [Unix.map_file]s the bulk sections straight
    into the {!Document.Flat} columns, so cold-start cost is the page
    table, not the corpus.

    Integrity story: the header records a per-section MD5, the arena's
    {!fingerprint} (a digest of the arena sections' digests) and a digest
    of itself; the rest of its page is zeros. {!load} verifies structure
    (magic, version, endianness probe, word size, header digest, section
    table, lengths) and the digests of the sections it decodes into the
    heap ([kinds], [meta], [index], [members]), but deliberately not the
    mapped bulk digests — checksumming the corpus would re-read it and
    defeat the O(1) start. {!load_checked} (live-store recovery) and
    {!verify} ([extract check]) spend every digest and check every
    padding byte, so a flipped byte anywhere is caught. Images of an
    older format are rejected by magic or version; [Corpus.load_file]
    rebuilds them from a sibling XML file. See DESIGN.md §15 for the
    layout diagram.

    Fault points: ["snapshot.write"] and ["snapshot.rename"] in {!save}
    (before the temp file is written, and between its fsync and the
    rename — both raise {!Extract_util.Faults.Injected}, or exit 137
    under a [crash] spec); ["snapshot.map"] in every load (raises
    {!Codec.Corrupt}). *)

val magic : string
(** ["XTRSNAP2"], written as a {!Codec} string. *)

val version : int

type generation = {
  number : int;
  members : (string * Document.node) list;
      (** member subtree roots, strictly ascending *)
}
(** What a {!Live} generation records beside its arena and index. *)

val encode : ?generation:generation -> Document.t -> Inverted_index.t -> string
(** The complete snapshot image (header page + padded sections). *)

val save : ?generation:generation -> string -> Document.t -> Inverted_index.t -> unit
(** Write durably through {!Durable.replace_atomic}: temp file, fsync,
    rename, directory fsync. Packs the index when it is still plain.
    @raise Sys_error or [Unix.Unix_error] on IO failure. *)

val load : string -> Document.t * Inverted_index.t
(** Map a snapshot. The document's columns are backed by the file
    (private, read-only mapping; the mapping outlives the fd). The index
    is returned packed — {!Inverted_index.is_packed}.
    @raise Codec.Corrupt on structural damage, foreign endianness or
    word size, a header/[kinds]/[meta]/[index]/[members] checksum
    mismatch (naming the section), or index/arena fingerprint mismatch.
    @raise Codec.Truncated on an empty or short file (path and expected
    magic included). *)

val load_checked : string -> Document.t * Inverted_index.t * generation option
(** {!load}, after checking every section digest and every padding
    byte. Also returns the [members] section ([None] outside live
    stores). Same exceptions. *)

val is_image : string -> bool
(** Does the file open with an image magic (this format's or an older
    one's)? The one dispatch between images and XML sources.
    @raise Sys_error when the file cannot be read. *)

val fingerprint : Document.t -> string
(** Hex digest of the arena's section digests, as {!encode} records it. *)

(** {1 Deep verification} *)

type stats = {
  v_node_count : int;
  v_element_count : int;
  v_fingerprint : string;
  v_sections : (string * int) list; (** name, exact byte length *)
  v_file_bytes : int;
}

val verify : string -> stats
(** {!load_checked}, then re-serialize the materialized arena and
    confirm it re-derives the header fingerprint. O(file) — the
    [extract check] path, not the serving path.
    @raise Codec.Corrupt naming the damaged section. *)

(**/**)

module Internal : sig
  val reseal : string -> (string -> string -> string) -> string
  (** [reseal image f] re-assembles an {!encode}d image after passing
      each section's body through [f name body], recording fresh
      digests: the decoders behind the digests can then be fed damaged
      input (the fuzz properties). *)
end
