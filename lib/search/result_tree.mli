(** Query results as pruned views over the document arena.

    A query result is a tree: a root node plus a subset of its descendants
    (closed under ancestors within the result). Snippet generation consumes
    exactly this structure — the paper's pipeline takes "the query results"
    produced by any XML search engine as input.

    Two shapes are built by the engines: [full] results (the entire subtree
    of the result root — what XSeek returns when the search target is an
    entity, and what the paper's Figure 1 shows) and [match-paths] results
    (root-to-match paths only, a leaner presentation used for
    comparison). *)

module Document = Extract_store.Document

type t

val full : Document.t -> Document.node -> t
(** The whole subtree rooted at the node. *)

val of_members : Document.t -> root:Document.node -> Document.node list -> t
(** A pruned view: [members] may omit the root and ancestors; the set is
    closed upward to the root automatically. All members must lie in the
    root's subtree. @raise Invalid_argument otherwise. *)

val match_paths : Document.t -> root:Document.node -> matches:Document.node list -> t
(** Root-to-match paths only. *)

val document : t -> Document.t

val root : t -> Document.node

val mem : t -> Document.node -> bool
(** An interval test when the members are contiguous (every [full]
    tree), a binary search over {!members} otherwise. *)

val size : t -> int
(** Number of member nodes (elements and text). *)

val element_size : t -> int

val edge_count : t -> int
(** Edges between member element nodes. *)

val members : t -> Document.node array
(** Sorted (document order). Do not mutate. *)

val children : t -> Document.node -> Document.node list
(** Member children of a member node. *)

val iter_elements : t -> (Document.node -> unit) -> unit
(** Member element nodes in document order. *)

val fold_elements : t -> ('a -> Document.node -> 'a) -> 'a -> 'a

val parent_in : t -> Document.node -> Document.node option
(** Parent within the result ([None] for the result root). Because member
    sets are ancestor-closed, this is the document parent for any member
    except the root. *)

val restrict_matches : t -> Document.node array -> Document.node list
(** Posting-list entries that are members, in document order. The sorted
    list is binary-searched to the interval from the root to the last
    member first, so the cost follows the matches under the root, not the
    posting list; on a contiguous tree that slice is the answer. *)

val text_of : t -> string
(** All member text, document order, space-joined (for the text-snippet
    baseline). *)

val to_pretty : t -> Extract_util.Pretty.tree
(** Render (element tags, attribute values inline). *)

val to_xml : t -> Extract_xml.Types.t
