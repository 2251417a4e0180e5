module Inverted_index = Extract_store.Inverted_index

type semantics = Slca | Elca | Xseek | Xsearch

type shape = Full_subtree | Match_paths

let take limit l =
  match limit with
  | None -> l
  | Some k -> List.filteri (fun i _ -> i < k) l

let shape_root ctx shape doc root =
  match shape with
  | Full_subtree -> Result_tree.full doc root
  | Match_paths ->
    Result_tree.match_paths doc ~root ~matches:(Eval_ctx.matches_under ctx root)

(* Result roots are computed for the whole query (the SLCA/ELCA/return-node
   sets are global properties), but only the first [limit] roots are
   materialized as result trees — the expensive part for full-subtree
   shapes. *)
let run_ctx ?(semantics = Xseek) ?(shape = Full_subtree) ?limit ctx kinds =
  let doc = Eval_ctx.document ctx in
  if Query.is_empty (Eval_ctx.query ctx) then []
  else
    match semantics with
    | Xseek ->
      Xseek.roots kinds (Eval_ctx.lists ctx)
      |> take limit
      |> List.map (shape_root ctx shape doc)
    | Xsearch -> begin
      (* XSearch answers are inherently match-path trees; the full shape
         expands each answer root to its subtree. *)
      let path_results = Xsearch.compute_lists ?limit doc (Eval_ctx.lists ctx) in
      match shape with
      | Match_paths -> path_results
      | Full_subtree ->
        List.map (fun r -> Result_tree.full doc (Result_tree.root r)) path_results
    end
    | Slca | Elca ->
      let lists = Eval_ctx.lists ctx in
      let roots =
        match semantics with
        | Slca -> Slca.compute doc lists
        | Elca -> Elca.compute doc lists
        | Xseek | Xsearch -> assert false
      in
      List.map (shape_root ctx shape doc) (take limit roots)

let run ?semantics ?shape ?limit ?mask index kinds query =
  run_ctx ?semantics ?shape ?limit (Eval_ctx.make ?mask index query) kinds

let semantics_of_string = function
  | "slca" -> Some Slca
  | "elca" -> Some Elca
  | "xseek" -> Some Xseek
  | "xsearch" -> Some Xsearch
  | _ -> None

let string_of_semantics = function
  | Slca -> "slca"
  | Elca -> "elca"
  | Xseek -> "xseek"
  | Xsearch -> "xsearch"

let all_semantics = [ Slca; Elca; Xseek; Xsearch ]

(* K-way merge of per-source scored result lists (each already sorted
   best-first) into one globally ranked list. Ties break toward the lower
   source index, and order within a source is preserved — so the merge is
   deterministic however the sources were produced. *)
let merge_scored ?limit (sources : (float * 'a) list array) : (float * (int * 'a)) list =
  let heads = Array.map (fun l -> ref l) sources in
  let pick () =
    let best = ref None in
    Array.iteri
      (fun i l ->
        match !l with
        | [] -> ()
        | (score, _) :: _ -> (
          match !best with
          | Some (best_score, _) when best_score >= score -> ()
          | _ -> best := Some (score, i)))
      heads;
    !best
  in
  let budget = match limit with Some k -> k | None -> max_int in
  let rec drain acc n =
    if n >= budget then List.rev acc
    else
      match pick () with
      | None -> List.rev acc
      | Some (_, i) -> (
        match !(heads.(i)) with
        | [] -> assert false
        | (score, x) :: rest ->
          heads.(i) := rest;
          drain ((score, (i, x)) :: acc) (n + 1))
  in
  drain [] 0

(* Conjunctive semantics returns nothing when any keyword is missing; the
   demo UI wants "did you mean fewer words". Drop the rarest keyword (the
   most likely typo or over-specification) until something matches. *)
let run_relaxed ?semantics ?shape ?limit ?mask index kinds query =
  let rec attempt query dropped =
    match run ?semantics ?shape ?limit ?mask index kinds query with
    | [] when Query.size query > 1 ->
      let keywords = Query.keywords query in
      let rarest =
        List.fold_left
          (fun best k ->
            let df = Array.length (Inverted_index.lookup index k) in
            match best with
            | Some (_, best_df) when best_df <= df -> best
            | _ -> Some (k, df))
          None keywords
      in
      (match rarest with
      | Some (k, _) ->
        let rest = List.filter (fun k2 -> k2 <> k) keywords in
        attempt (Query.of_keywords rest) (k :: dropped)
      | None -> [], List.rev dropped)
    | results -> results, List.rev dropped
  in
  attempt query []
