(** Static HTML rendering of search results with snippets — the library
    equivalent of the demo's web page (paper §4, Fig. 5).

    The demo site lists, for each query result, its snippet with a link to
    the complete result. [result_page] renders the same layout as one
    self-contained HTML page (inline CSS, no scripts): the query, the size
    bound, each result's snippet as a nested list, the IList as a caption,
    and the full result behind a [<details>] fold — the CLI's [demo]
    command writes it to disk. *)

val escape : string -> string
(** HTML-escape text content. *)

val result_page :
  ?title:string ->
  query:string ->
  bound:int ->
  Pipeline.snippet_result list ->
  string
(** The complete page, written in one pass into one buffer sized up
    front from the results. *)

val write_page :
  path:string ->
  ?title:string ->
  query:string ->
  bound:int ->
  Pipeline.snippet_result list ->
  unit
