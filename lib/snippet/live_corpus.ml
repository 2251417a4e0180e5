module Live = Extract_store.Live
module Document = Extract_store.Document
module Result_tree = Extract_search.Result_tree

type hit = Corpus.hit = {
  source : string;
  segment : int;
  score : float;
  global_root : int;
  result : Pipeline.snippet_result;
}

(* The query-side mirror of a {!Live.view}: the same arenas wrapped as
   analyzed pipelines, swapped atomically so queries never lock. *)
(* read-only — a qview is built privately in [refresh] and never
   mutated after [Atomic.set] publishes it; updates build a fresh one *)
type qview = {
  generation : int;
  doc : Document.t; (* the base arena this view was built from *)
  base : Pipeline.t;
  mask : (int * int) array;
  members : (string * Document.node) list; (* visible, in document order *)
  deltas : (string * Pipeline.t) list;
}

type t = {
  store : Live.t;
  lock : Mutex.t; (* update-path serialisation; taken before Live's own lock *)
  qview : qview Atomic.t;
}

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    Mutex.unlock t.lock;
    raise e

(* Rebuild the query view from the store's current view, reusing the
   previous view's pipelines when the underlying arenas are unchanged —
   the base survives every add/remove (only compaction replaces it), and
   deltas are append-mostly. *)
let refresh ?previous (view : Live.view) =
  let reuse_base =
    match previous with
    | Some prev when prev.doc == view.Live.doc -> Some prev.base
    | Some _ | None -> None
  in
  let base =
    match reuse_base with
    | Some base -> base
    | None -> Pipeline.of_parts view.Live.doc view.Live.index
  in
  let previous_deltas = match previous with Some prev -> prev.deltas | None -> [] in
  let deltas =
    List.map
      (fun (name, (d : Live.delta)) ->
        let reused =
          List.find_opt
            (fun (n, db) ->
              String.equal n name && Pipeline.document db == d.Live.delta_doc)
            previous_deltas
        in
        match reused with
        | Some (_, db) -> name, db
        | None -> name, Pipeline.of_parts d.Live.delta_doc d.Live.delta_index)
      view.Live.deltas
  in
  let visible =
    List.filter
      (fun (name, _) -> not (List.exists (String.equal name) view.Live.tombstones))
      view.Live.members
  in
  {
    generation = view.Live.generation;
    doc = view.Live.doc;
    base;
    mask = Live.mask view;
    members = visible;
    deltas;
  }

let open_dir ?read_only ?on_warning dir =
  let store = Live.open_dir ?read_only ?on_warning dir in
  { store; lock = Mutex.create (); qview = Atomic.make (refresh (Live.view store)) }

let store t = t.store

let generation t = (Atomic.get t.qview).generation

let names t =
  let q = Atomic.get t.qview in
  List.map fst q.members @ List.map fst q.deltas

let close t = Live.close t.store

let resync t =
  Atomic.set t.qview (refresh ~previous:(Atomic.get t.qview) (Live.view t.store))

let add t ~name ~xml =
  with_lock t (fun () ->
      Live.add t.store ~name ~xml;
      resync t)

let remove t name =
  with_lock t (fun () ->
      let existed = Live.remove t.store name in
      if existed then resync t;
      existed)

let compact t =
  with_lock t (fun () ->
      let generation = Live.compact t.store in
      resync t;
      generation)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

(* The masked base, then every delta. A base result is labelled with the
   member subtree its root falls in; the synthetic corpus root (node 0)
   is no member's node, so an LCA that lands there spans several
   documents and is dropped — members are independent documents that
   happen to share an arena. *)
let segments q =
  let member_of tree =
    let root = Result_tree.root tree in
    List.find_opt (fun (_, m) -> m <= root && root <= Document.subtree_last q.doc m) q.members
    |> Option.map fst
  in
  let base =
    { Corpus.db = q.base; mask = Some q.mask; source = member_of; to_global = Fun.id }
  in
  (if Array.length q.mask = 0 then [] else [ base ])
  @ List.map
      (fun (name, db) ->
        { Corpus.db; mask = None; source = (fun _ -> Some name); to_global = Fun.id })
      q.deltas

let run ?semantics ?config ?bound ?limit ?deadline t query_string =
  Corpus.query ?semantics ?config ?bound ?limit ?deadline
    (segments (Atomic.get t.qview))
    query_string
