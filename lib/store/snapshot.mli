(** Index format v2: flat, offset-based arena snapshots, mapped on load.

    A snapshot is one file — a 4096-byte header page followed by
    page-aligned sections: the arena's four int columns and text blob
    stored as raw native words/bytes, plus small {!Codec}-encoded meta
    (DTD, tag names) and index (vocabulary, {!Packed_postings},
    tag-token pairs) sections. {!load} [Unix.map_file]s the bulk
    sections straight into the {!Document.Flat} columns, so cold-start
    cost is the page table, not the corpus — against {!Persist}'s v1
    bundles, which decode every node and text string on every load
    (benchmark E22 measures the gap).

    Integrity story: the header records a per-section MD5 and the
    arena's {!Persist.fingerprint}. {!load} verifies structure (magic,
    version, endianness probe, word size, section table, lengths) and
    the digests of the three sections it decodes into the heap ([kinds],
    [meta], [index]), but deliberately not the mapped bulk digests —
    checksumming the corpus would re-read it and defeat the O(1) start.
    [extract check] calls
    {!verify}, which spends the recorded digests and re-derives the
    fingerprint. See DESIGN.md §15 for the layout diagram and v1→v2
    migration rules.

    Fault points: ["snapshot.pack"] in {!save}, ["snapshot.map"] in
    {!load} (distinct from the live store's ["snapshot.read"/"write"]
    generation files). *)

val magic : string
(** ["XTRSNAP2"], {!Codec}-string-prefixed like every Persist magic, so
    {!Persist.sniff_magic} dispatches snapshot files unchanged. *)

val version : int

val encode : Document.t -> Inverted_index.t -> string
(** The complete snapshot image (header page + padded sections). *)

val save : string -> Document.t -> Inverted_index.t -> unit
(** Write atomically (temp file + rename). Packs the index when it is
    still plain. @raise Sys_error on IO failure. *)

val load : string -> Document.t * Inverted_index.t
(** Map a snapshot. The document's columns are backed by the file
    (private, read-only mapping; the mapping outlives the fd). The index
    is returned packed — {!Inverted_index.is_packed}.
    @raise Codec.Corrupt on structural damage, foreign endianness or
    word size, a [kinds]/[meta]/[index] checksum mismatch (naming the
    section), or index/arena fingerprint mismatch.
    @raise Codec.Truncated on an empty or short file (path and expected
    magic included). *)

(** {1 Deep verification} *)

type stats = {
  v_node_count : int;
  v_element_count : int;
  v_fingerprint : string;
  v_sections : (string * int) list; (** name, exact byte length *)
  v_file_bytes : int;
}

val verify : string -> stats
(** Re-read every section, check its recorded MD5, materialize the arena
    and confirm it re-derives the header fingerprint. O(file) — the
    [extract check --index] path, not the serving path.
    @raise Codec.Corrupt naming the damaged section. *)
