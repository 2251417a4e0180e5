(** Result ranking, XRank-flavoured (Guo et al., SIGMOD 2003 — the paper's
    reference [2]).

    The demo positions snippets as a {e complement} to ranking (§1:
    "various ranking schemes have been proposed … no ranking scheme can
    always perfectly assess relevance"); a full engine needs both. This
    ranker scores a query result by combining:

    - {b keyword specificity} — IDF over element match counts, so rare
      keywords dominate the score;
    - {b match decay} — a match counts through a per-level decay factor
      (XRank's ElemRank propagation): matches near the result root beat
      matches buried deep below it;
    - {b term frequency} — logarithmic in the number of matches inside the
      result;
    - {b result specificity} — smaller results outrank sprawling ones,
      echoing the SLCA intuition.

    Scores are comparable only within one query. *)

type t

val make : ?decay:float -> Extract_store.Inverted_index.t -> t
(** [decay] is the per-level attenuation in (0, 1], default 0.8. *)

val idf : t -> string -> float
(** [ln (1 + elements / (1 + df))], where [df] is the keyword's posting
    count. Unknown keywords get the maximum IDF. *)

val score : t -> Query.t -> Result_tree.t -> float
(** [score t query] does the per-query work once: it looks up each
    keyword's postings ({!Extract_store.Inverted_index.lookup}, a full
    decode on a packed index) and computes its {!idf}. The returned
    function scores one result of [query] from that state, so apply
    [score t query] once and reuse it across a result list. The state is
    immutable, so the scorer may be shared freely. *)

val rank : t -> Query.t -> Result_tree.t list -> (Result_tree.t * float) list
(** Sorted by decreasing score; ties keep the input (document) order. *)
