module Eval_ctx = Extract_search.Eval_ctx
module Ranker = Extract_search.Ranker
module Result_tree = Extract_search.Result_tree

type t = { dbs : (string * Pipeline.t) list (* sorted by name *) }

let empty = { dbs = [] }

let add t ~name db =
  let without = List.remove_assoc name t.dbs in
  { dbs = List.sort (fun (a, _) (b, _) -> String.compare a b) ((name, db) :: without) }

let of_list entries = List.fold_left (fun t (name, db) -> add t ~name db) empty entries

let names t = List.map fst t.dbs

let find t name = List.assoc_opt name t.dbs

let size t = List.length t.dbs

(* ------------------------------------------------------------------ *)
(* Loading: accept an XML file, a binary arena, or a bundle written by
   [extract save], dispatching on the leading magic. A corrupt persisted
   artifact is not fatal when its XML source is still around: warn and
   rebuild from the source instead — the artifact is only ever a cache of
   the XML. *)

let sniff path =
  let ic = open_in_bin path in
  let head =
    try really_input_string ic (min (in_channel_length ic) 16)
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  Extract_store.Persist.sniff_magic head

let load_artifact path magic =
  if magic = Extract_store.Persist.bundle_magic then Some (Pipeline.load path)
  else if magic = Extract_store.Persist.magic then
    Some (Pipeline.build (Extract_store.Persist.load path))
  else if magic = Extract_store.Snapshot.magic then Some (Pipeline.load_snapshot path)
  else None

(* candidate XML sources for a corrupt artifact: `foo.bundle` → `foo.xml`,
   then bare `foo` *)
let xml_siblings path =
  let base = Filename.remove_extension path in
  List.filter (fun p -> p <> path && Sys.file_exists p) [ base ^ ".xml"; base ]

let load_file ?(on_warning = fun _ -> ()) path =
  let rebuild_or_reraise reason original =
    match xml_siblings path with
    | source :: _ ->
      on_warning
        (Printf.sprintf "corrupt artifact %s (%s); rebuilding from %s" path reason source);
      Pipeline.of_file source
    | [] -> raise original
  in
  match sniff path with
  | None -> Pipeline.of_file path
  | Some magic -> (
    match load_artifact path magic with
    | None -> Pipeline.of_file path
    | Some db -> db
    | exception (Extract_store.Codec.Corrupt reason as e) -> rebuild_or_reraise reason e
    | exception (Extract_store.Codec.Truncated reason as e) ->
      rebuild_or_reraise ("truncated: " ^ reason) e)

(* ------------------------------------------------------------------ *)
(* The segment query: rank every answer of every segment, then snippet
   only the global top [limit] *)

type segment = {
  db : Pipeline.t;
  mask : (int * int) array option;
  source : Result_tree.t -> string option;
  to_global : int -> int;
}

type hit = {
  source : string;
  segment : int;
  score : float;
  global_root : int;
  result : Pipeline.snippet_result;
}

(* a phase-1 answer, not yet snippeted *)
type candidate = {
  label : string;
  seg : int;
  relevance : float;
  tree : Result_tree.t;
  ctx : Eval_ctx.t;
}

let sequentially n f = List.iter f (List.init n Fun.id)

let query ?semantics ?config ?bound ?limit ?deadline ?(fan_out = sequentially) segments
    query_string =
  Pipeline.scoped query_string ~snippets:(List.map (fun h -> h.result)) @@ fun () ->
  let segments = Array.of_list segments in
  (* phase 1; slot i is written only by [f i], on whichever domain
     [fan_out] runs it, and read after [fan_out] returns *)
  let ranked = Array.make (Array.length segments) [] in
  fan_out (Array.length segments) (fun i ->
      let { db; mask; source; _ } = segments.(i) in
      let ctx, results = Pipeline.search_ctx ?semantics ?mask db query_string in
      let answers =
        List.filter_map (fun tree -> Option.map (fun label -> label, tree) (source tree)) results
      in
      match answers with
      | [] -> ()
      | _ ->
        (* one posting lookup per keyword for the whole segment *)
        let score = Ranker.score (Ranker.make (Pipeline.index db)) (Eval_ctx.query ctx) in
        ranked.(i) <-
          List.map
            (fun (label, tree) -> { label; seg = i; relevance = score tree; tree; ctx })
            answers);
  (* one global order: score, then source label; the stable sort keeps
     segment order, then document order, among the rest *)
  let winners =
    List.concat (Array.to_list ranked)
    |> List.stable_sort (fun a b ->
           match Float.compare b.relevance a.relevance with
           | 0 -> String.compare a.label b.label
           | c -> c)
    |> List.filteri (fun rank _ -> match limit with None -> true | Some k -> rank < k)
    |> List.mapi (fun rank c -> rank, c)
  in
  (* phase 2: each segment snippets its own winners under its own
     context, then the hits go back into rank order *)
  List.init (Array.length segments) (fun i ->
      match List.filter (fun (_, c) -> c.seg = i) winners with
      | [] -> []
      | (_, first) :: _ as mine ->
        List.map2
          (fun (rank, c) result ->
            let global_root = segments.(i).to_global (Result_tree.root c.tree) in
            rank, { source = c.label; segment = i; score = c.relevance; global_root; result })
          mine
          (Pipeline.snippets ?config ?bound ?deadline segments.(i).db first.ctx
             (List.map (fun (_, c) -> c.tree) mine)))
  |> List.concat
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let run ?semantics ?config ?bound ?limit ?deadline t query_string =
  query ?semantics ?config ?bound ?limit ?deadline
    (List.map
       (fun (name, db) ->
         { db; mask = None; source = (fun _ -> Some name); to_global = Fun.id })
       t.dbs)
    query_string
