module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index

type t = {
  index : Inverted_index.t;
  decay : float;
}

let make ?(decay = 0.8) index =
  if decay <= 0.0 || decay > 1.0 then invalid_arg "Ranker.make: decay must be in (0, 1]";
  { index; decay }

let idf_of_postings t postings =
  let doc = Inverted_index.document t.index in
  let n = float_of_int (Document.element_count doc) in
  let df = float_of_int (Array.length postings) in
  log (1.0 +. (n /. (1.0 +. df)))

let idf t keyword = idf_of_postings t (Inverted_index.lookup t.index keyword)

(* The per-query work — one posting lookup (a full decode on a packed
   index) and one IDF per keyword — happens when [score] is applied to
   the query; the returned closure only restricts and sums, in keyword
   order, so every result's score is the same float as before. *)
let score t query =
  let keywords =
    List.map
      (fun k ->
        let postings = Inverted_index.lookup t.index k in
        postings, idf_of_postings t postings)
      (Query.keywords query)
  in
  fun result ->
    let doc = Result_tree.document result in
    let root_depth = Document.depth doc (Result_tree.root result) in
    let per_keyword (postings, idf) =
      let matches = Result_tree.restrict_matches result postings in
      match matches with
      | [] -> 0.0
      | _ ->
        let best_decay =
          List.fold_left
            (fun best m ->
              let dist = Document.depth doc m - root_depth in
              max best (t.decay ** float_of_int dist))
            0.0 matches
        in
        let tf = log (1.0 +. float_of_int (List.length matches)) in
        idf *. best_decay *. (1.0 +. tf)
    in
    let keyword_score = List.fold_left (fun acc k -> acc +. per_keyword k) 0.0 keywords in
    let specificity = 1.0 /. log (2.0 +. float_of_int (Result_tree.element_size result)) in
    keyword_score *. (1.0 +. specificity)

let rank t query results =
  let score = score t query in
  List.map (fun r -> r, score r) results
  |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a)
