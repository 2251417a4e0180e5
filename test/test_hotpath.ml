(* Tests for the query hot-path overhaul: the shared per-query evaluation
   context, limit pushdown, memoized feature analysis, the query-level
   snippet cache and the completion index. *)

module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index
module Node_kind = Extract_store.Node_kind
module Engine = Extract_search.Engine
module Eval_ctx = Extract_search.Eval_ctx
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline
module Feature = Extract_snippet.Feature
module Selector = Extract_snippet.Selector
module Snippet_tree = Extract_snippet.Snippet_tree
module Snippet_cache = Extract_snippet.Snippet_cache

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let retail_db =
  lazy
    (Pipeline.build
       (Document.of_document (Extract_datagen.Retail.generate Extract_datagen.Retail.default)))

let render (r : Pipeline.snippet_result) =
  Snippet_tree.render r.Pipeline.selection.Selector.snippet

(* ------------------------------------------------------------------ *)
(* Evaluation context *)

let test_ctx_shares_posting_arrays () =
  let db = Lazy.force retail_db in
  let idx = Pipeline.index db in
  let q = Query.of_string "apparel retailer" in
  let ctx = Eval_ctx.make idx q in
  (* resolve-once: the context hands back the index's own arrays *)
  List.iter
    (fun kw -> check bool ("shared " ^ kw) true (Eval_ctx.postings ctx kw == Inverted_index.lookup idx kw))
    (Query.keywords q);
  check int "one list per keyword" (Query.size q) (List.length (Eval_ctx.lists ctx))

let test_run_ctx_equals_run () =
  let db = Lazy.force retail_db in
  let idx = Pipeline.index db in
  let kinds = Pipeline.kinds db in
  let q = Query.of_string "apparel store" in
  let fingerprint r = Result_tree.root r, Array.to_list (Result_tree.members r) in
  List.iter
    (fun semantics ->
      let direct = Engine.run ~semantics idx kinds q in
      let via_ctx = Engine.run_ctx ~semantics (Eval_ctx.make idx q) kinds in
      check bool
        (Engine.string_of_semantics semantics)
        true
        (List.map fingerprint direct = List.map fingerprint via_ctx))
    Engine.all_semantics

(* ------------------------------------------------------------------ *)
(* Limit pushdown *)

let test_limit_is_prefix_of_unlimited () =
  let db = Lazy.force retail_db in
  let idx = Pipeline.index db in
  let kinds = Pipeline.kinds db in
  let q = Query.of_string "apparel store" in
  let fingerprint r = Result_tree.root r, Array.to_list (Result_tree.members r) in
  List.iter
    (fun semantics ->
      let all = Engine.run ~semantics idx kinds q in
      List.iter
        (fun k ->
          let limited = Engine.run ~semantics ~limit:k idx kinds q in
          let expected = List.filteri (fun i _ -> i < k) all in
          check bool
            (Printf.sprintf "%s limit %d" (Engine.string_of_semantics semantics) k)
            true
            (List.map fingerprint limited = List.map fingerprint expected))
        [ 0; 1; 3; 1000 ])
    Engine.all_semantics

(* ------------------------------------------------------------------ *)
(* Feature analysis memoization *)

let test_differentiated_analyzes_once_per_result () =
  let db = Lazy.force retail_db in
  let q = "apparel store" in
  let results = Pipeline.search db q in
  check bool "query has several results" true (List.length results > 1);
  let before = Feature.analyze_calls () in
  let out = Pipeline.run_differentiated ~bound:8 db q in
  let after = Feature.analyze_calls () in
  check int "one analysis per result" (List.length results) (after - before);
  check int "all results snippeted" (List.length results) (List.length out)

(* ------------------------------------------------------------------ *)
(* Snippet cache *)

let test_cache_hit_on_identical_query () =
  let db = Lazy.force retail_db in
  let cache = Snippet_cache.create ~capacity:8 () in
  let first = Snippet_cache.run ~bound:8 cache db "apparel retailer" in
  check bool "miss first" true (Snippet_cache.stats cache = (0, 1));
  let second = Snippet_cache.run ~bound:8 cache db "apparel retailer" in
  check bool "hit second" true (Snippet_cache.stats cache = (1, 1));
  check bool "cached value shared" true (first == second);
  check int "one entry" 1 (Snippet_cache.length cache);
  check bool "hit rate 0.5" true (abs_float (Snippet_cache.hit_rate cache -. 0.5) < 1e-9)

let test_cache_normalizes_queries () =
  let db = Lazy.force retail_db in
  let cache = Snippet_cache.create ~capacity:8 () in
  let a = Snippet_cache.run ~bound:8 cache db "Apparel,   RETAILER" in
  let b = Snippet_cache.run ~bound:8 cache db "apparel retailer" in
  check bool "normalized queries share the entry" true (a == b);
  check bool "one miss one hit" true (Snippet_cache.stats cache = (1, 1))

let test_cache_key_distinguishes_parameters () =
  let db = Lazy.force retail_db in
  let other = Pipeline.of_xml_string "<shop><apparel>retailer</apparel></shop>" in
  let cache = Snippet_cache.create ~capacity:8 () in
  let q = "apparel retailer" in
  ignore (Snippet_cache.run ~bound:8 cache db q);
  ignore (Snippet_cache.run ~bound:8 cache other q);   (* different database *)
  ignore (Snippet_cache.run ~bound:4 cache db q);      (* different bound *)
  ignore (Snippet_cache.run ~bound:8 ~limit:1 cache db q); (* different limit *)
  ignore (Snippet_cache.run ~semantics:Engine.Slca ~bound:8 cache db q);
  check bool "five distinct keys, all misses" true (Snippet_cache.stats cache = (0, 5));
  check int "five entries" 5 (Snippet_cache.length cache)

let test_cache_clear_resets () =
  let db = Lazy.force retail_db in
  let cache = Snippet_cache.create ~capacity:8 () in
  ignore (Snippet_cache.run cache db "apparel");
  ignore (Snippet_cache.run cache db "apparel");
  Snippet_cache.clear cache;
  check bool "stats reset" true (Snippet_cache.stats cache = (0, 0));
  check int "empty" 0 (Snippet_cache.length cache);
  ignore (Snippet_cache.run cache db "apparel");
  check bool "miss after clear" true (Snippet_cache.stats cache = (0, 1))

let test_cache_matches_pipeline_run () =
  let db = Lazy.force retail_db in
  let cache = Snippet_cache.create ()  in
  let q = "jeans store" in
  let cached = List.map render (Snippet_cache.run ~bound:8 cache db q) in
  let direct = List.map render (Pipeline.run ~bound:8 db q) in
  check bool "cached run = direct run" true (cached = direct)

(* ------------------------------------------------------------------ *)
(* Allocation budget of the result key *)

(* "store city" names an entity tag and one of its attribute tags; its
   first 25 results are 92-node stores. [Result_key.key_of_result]
   allocated 4,243 minor words per result here while it matched tag
   names per node, copied attribute values and hashed every member; it
   allocates 567 now. The bound is about twice that. *)
let key_words_per_result_bound = 1200.

let test_result_key_allocation () =
  let db = Lazy.force retail_db in
  let q = "store city" in
  let results = Pipeline.search ~limit:25 db q in
  check int "25 results" 25 (List.length results);
  let query = Query.of_string q in
  let keys = Pipeline.keys db and kinds = Pipeline.kinds db in
  let run () =
    List.iter (fun r -> ignore (Extract_snippet.Result_key.key_of_result keys kinds r query)) results
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let per_result = (Gc.minor_words () -. before) /. 25. in
  if per_result > key_words_per_result_bound then
    Alcotest.failf "key_of_result allocates %.0f minor words per result (bound %.0f)" per_result
      key_words_per_result_bound

(* ------------------------------------------------------------------ *)
(* Completion index *)

let test_complete_equals_naive_scan () =
  let db = Lazy.force retail_db in
  let idx = Pipeline.index db in
  let naive ?(limit = 10) prefix =
    let prefix = Extract_store.Tokenizer.normalize prefix in
    Inverted_index.vocabulary idx
    |> List.filter (fun tok ->
           String.length tok >= String.length prefix
           && String.sub tok 0 (String.length prefix) = prefix)
    |> List.map (fun tok -> tok, Array.length (Inverted_index.lookup idx tok))
    |> List.sort (fun (ta, ca) (tb, cb) -> if ca <> cb then compare cb ca else compare ta tb)
    |> List.filteri (fun i _ -> i < limit)
  in
  List.iter
    (fun prefix ->
      check bool ("prefix " ^ prefix) true
        (Inverted_index.complete idx prefix = naive prefix))
    [ "s"; "st"; "store"; "a"; "re"; "z"; "nosuch"; "STORE" ];
  check bool "limit respected" true
    (Inverted_index.complete idx ~limit:2 "s" = naive ~limit:2 "s")

let suites =
  [
    ( "hotpath.eval_ctx",
      [
        Alcotest.test_case "posting arrays shared" `Quick test_ctx_shares_posting_arrays;
        Alcotest.test_case "run_ctx = run" `Quick test_run_ctx_equals_run;
      ] );
    ( "hotpath.limit",
      [
        Alcotest.test_case "limit = prefix of unlimited" `Quick test_limit_is_prefix_of_unlimited;
      ] );
    ( "hotpath.analysis",
      [
        Alcotest.test_case "analyze once per result" `Quick
          test_differentiated_analyzes_once_per_result;
      ] );
    ( "hotpath.cache",
      [
        Alcotest.test_case "hit on identical query" `Quick test_cache_hit_on_identical_query;
        Alcotest.test_case "query normalization" `Quick test_cache_normalizes_queries;
        Alcotest.test_case "key parameters" `Quick test_cache_key_distinguishes_parameters;
        Alcotest.test_case "clear resets" `Quick test_cache_clear_resets;
        Alcotest.test_case "cached = direct" `Quick test_cache_matches_pipeline_run;
      ] );
    ( "hotpath.alloc",
      [ Alcotest.test_case "result key words per result" `Quick test_result_key_allocation ] );
    ( "hotpath.complete",
      [
        Alcotest.test_case "complete = naive scan" `Quick test_complete_equals_naive_scan;
      ] );
  ]
