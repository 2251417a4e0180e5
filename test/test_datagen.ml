(* Unit tests for the dataset generators and their shared machinery —
   including the recursive-schema dataset, the classification corner it
   exercises, and the relaxed/ranked pipeline entry points built on top. *)

module Document = Extract_store.Document
module Dataguide = Extract_store.Dataguide
module Node_kind = Extract_store.Node_kind
module Engine = Extract_search.Engine
module Query = Extract_search.Query
module Datagen = Extract_datagen
module Pipeline = Extract_snippet.Pipeline
module Corpus = Extract_snippet.Corpus

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Gen helpers *)

let test_expand_counts () =
  check bool "expansion" true
    (Datagen.Gen.expand_counts [ "a", 2; "b", 1 ] = [| "a"; "a"; "b" |]);
  check bool "empty" true (Datagen.Gen.expand_counts [] = [||]);
  check bool "zero count" true (Datagen.Gen.expand_counts [ "a", 0; "b", 2 ] = [| "b"; "b" |])

let test_deal () =
  let groups = Datagen.Gen.deal [| 1; 2; 3; 4; 5 |] 2 in
  check int "two groups" 2 (Array.length groups);
  check bool "round robin" true (groups.(0) = [| 1; 3; 5 |] && groups.(1) = [| 2; 4 |]);
  Alcotest.check_raises "k=0" (Invalid_argument "Gen.deal: k must be positive") (fun () ->
      ignore (Datagen.Gen.deal [| 1 |] 0))

let test_pick_zipf_mismatch () =
  let rng = Extract_util.Prng.create 1 in
  let z = Extract_util.Zipf.create ~n:3 ~skew:1.0 in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Gen.pick_zipf: distribution size mismatch") (fun () ->
      ignore (Datagen.Gen.pick_zipf rng z [| "a" |]))

let test_gen_document_text_root () =
  Alcotest.check_raises "text root"
    (Invalid_argument "Gen.document: the root must be an element") (fun () ->
      ignore (Datagen.Gen.document (Extract_xml.Types.text "x")))

(* ------------------------------------------------------------------ *)
(* Paper example counts *)

let test_paper_example_counts () =
  let doc = Document.of_document (Datagen.Paper_example.document ()) in
  let guide = Dataguide.build doc in
  let count path = Dataguide.instance_count guide (Option.get (Dataguide.find_path guide path)) in
  check int "stores (10 + 2 others)" 12 (count [ "retailers"; "retailer"; "store" ]);
  check int "retailers" 3 (count [ "retailers"; "retailer" ]);
  check int "clothes"
    (Datagen.Paper_example.clothes_count + 4)
    (count [ "retailers"; "retailer"; "store"; "merchandises"; "clothes" ])

let test_paper_example_seedless_determinism () =
  let a = Extract_xml.Printer.document_to_string (Datagen.Paper_example.document ()) in
  let b = Extract_xml.Printer.document_to_string (Datagen.Paper_example.document ()) in
  check bool "byte identical" true (String.equal a b)

(* ------------------------------------------------------------------ *)
(* Retail configuration effects *)

let test_retail_config_shapes () =
  let gen retailers stores clothes =
    Document.of_document
      (Datagen.Retail.generate
         {
           Datagen.Retail.default with
           Datagen.Retail.retailers;
           stores_per_retailer = stores;
           clothes_per_store = clothes;
         })
  in
  let small = gen 1 2 2 in
  let big = gen 2 4 4 in
  check bool "bigger config, bigger doc" true
    (Document.node_count big > 2 * Document.node_count small);
  let guide = Dataguide.build small in
  check int "one retailer" 1
    (Dataguide.instance_count guide
       (Option.get (Dataguide.find_path guide [ "retailers"; "retailer" ])));
  check int "two stores" 2
    (Dataguide.instance_count guide
       (Option.get (Dataguide.find_path guide [ "retailers"; "retailer"; "store" ])))

let test_retail_seed_changes_content () =
  let s1 = Extract_xml.Printer.document_to_string (Datagen.Retail.generate Datagen.Retail.default) in
  let s2 =
    Extract_xml.Printer.document_to_string
      (Datagen.Retail.generate { Datagen.Retail.default with Datagen.Retail.seed = 43 })
  in
  check bool "different seeds differ" true (not (String.equal s1 s2))

(* ------------------------------------------------------------------ *)
(* Movies / Bib shapes *)

let test_movies_unique_titles () =
  let doc = Document.of_document (Datagen.Movies.sized 40) in
  let kinds = Node_kind.of_document doc in
  let keys = Extract_store.Key_miner.mine kinds in
  let guide = Node_kind.dataguide kinds in
  let movie = Option.get (Dataguide.find_path guide [ "movies"; "movie" ]) in
  check bool "title is the key" true
    (Option.map (Dataguide.path_tag_name guide) (Extract_store.Key_miner.key_path keys movie)
    = Some "title")

let test_bib_two_entity_tags_under_root () =
  let doc = Document.of_document (Datagen.Bib.sized 40) in
  let kinds = Node_kind.of_document doc in
  let guide = Node_kind.dataguide kinds in
  let article = Dataguide.find_path guide [ "bib"; "article" ] in
  let inproc = Dataguide.find_path guide [ "bib"; "inproceedings" ] in
  check bool "both publication kinds occur" true (article <> None && inproc <> None);
  check bool "author repeats -> entity" true
    (match Dataguide.find_path guide [ "bib"; "article"; "author" ] with
    | Some p -> Node_kind.kind_of_path kinds p = Node_kind.Entity
    | None -> false)

(* ------------------------------------------------------------------ *)
(* Recursive dataset *)

let nested_doc = lazy (Document.of_document (Datagen.Nested.generate Datagen.Nested.default))

let test_nested_recursive_paths () =
  let doc = Lazy.force nested_doc in
  let guide = Dataguide.build doc in
  (* section under section under section: distinct path per depth *)
  let p1 = Dataguide.find_path guide [ "report"; "section" ] in
  let p2 = Dataguide.find_path guide [ "report"; "section"; "section" ] in
  check bool "two recursion levels exist" true (p1 <> None && p2 <> None);
  check bool "distinct paths" true (p1 <> p2);
  check string "same tag" "section" (Dataguide.path_tag_name guide (Option.get p2))

let test_nested_entities_under_entities () =
  let doc = Lazy.force nested_doc in
  let kinds = Node_kind.of_document doc in
  let guide = Node_kind.dataguide kinds in
  List.iter
    (fun path ->
      match Dataguide.find_path guide path with
      | Some p ->
        check bool
          (Printf.sprintf "section depth %d is an entity" (List.length path - 1))
          true
          (Node_kind.kind_of_path kinds p = Node_kind.Entity)
      | None -> ())
    [ [ "report"; "section" ]; [ "report"; "section"; "section" ];
      [ "report"; "section"; "section"; "section" ] ]

let test_nested_validates () =
  let doc = Datagen.Nested.generate Datagen.Nested.default in
  match doc.Extract_xml.Types.dtd with
  | None -> Alcotest.fail "nested should carry a DTD"
  | Some subset ->
    check bool "valid" true
      (Extract_xml.Validator.is_valid (Extract_xml.Dtd.parse subset) doc.Extract_xml.Types.root)

let test_nested_search_returns_innermost () =
  let db = Pipeline.build (Lazy.force nested_doc) in
  let doc = Pipeline.document db in
  (* every heading is unique "word id"; search for one deep heading *)
  let guide = Pipeline.dataguide db in
  let deep_heading =
    Dataguide.paths guide
    |> List.filter (fun p -> Dataguide.path_tag_name guide p = "heading")
    |> List.concat_map (Dataguide.instances guide)
    |> List.filter (fun n -> Document.depth doc n >= 4)
  in
  match deep_heading with
  | [] -> Alcotest.fail "expected deep headings"
  | h :: _ ->
    let text = Extract_store.Tokenizer.tokens (Document.immediate_text doc h) in
    let q = String.concat " " text in
    let results = Pipeline.run ~bound:4 db q in
    check bool "deep section found" true (results <> []);
    let r = (List.hd results).Pipeline.result in
    check string "rooted at a section" "section"
      (Document.tag_name doc (Extract_search.Result_tree.root r))

let test_nested_sized () =
  let small = Document.of_document (Datagen.Nested.sized 20) in
  let large = Document.of_document (Datagen.Nested.sized 200) in
  check bool "sized scales" true (Document.node_count large > Document.node_count small)

(* ------------------------------------------------------------------ *)
(* Relaxed search *)

let test_relaxed_no_drop_needed () =
  let db = Pipeline.of_xml_string "<r><a>x y</a></r>" in
  let results, dropped =
    Engine.run_relaxed (Pipeline.index db) (Pipeline.kinds db) (Query.of_string "x y")
  in
  check bool "results" true (results <> []);
  check bool "nothing dropped" true (dropped = [])

let test_relaxed_drops_rarest () =
  let db = Pipeline.of_xml_string "<r><a>common common2</a><a>common</a></r>" in
  (* "zzz" has df 0: dropped first *)
  let results, dropped =
    Engine.run_relaxed (Pipeline.index db) (Pipeline.kinds db)
      (Query.of_string "common zzz")
  in
  check bool "results after drop" true (results <> []);
  check bool "dropped zzz" true (dropped = [ "zzz" ])

let test_relaxed_gives_up () =
  let db = Pipeline.of_xml_string "<r><a>x</a></r>" in
  let results, dropped =
    Engine.run_relaxed (Pipeline.index db) (Pipeline.kinds db)
      (Query.of_string "zz1 zz2 zz3")
  in
  check bool "no results" true (results = []);
  check int "dropped all but one" 2 (List.length dropped)

(* ------------------------------------------------------------------ *)
(* Ranked pipeline *)

let test_run_ranked_sorted () =
  let db =
    Pipeline.build
      (Document.of_document (Datagen.Retail.generate Datagen.Retail.default))
  in
  let ranked = Corpus.run ~bound:6 (Corpus.of_list [ "retail", db ]) "jeans store" in
  check bool "has results" true (ranked <> []);
  let scores = List.map (fun h -> h.Corpus.score) ranked in
  check bool "descending" true (List.sort (fun a b -> compare b a) scores = scores)

let test_run_ranked_limit_keeps_best () =
  let db =
    Pipeline.build
      (Document.of_document (Datagen.Retail.generate Datagen.Retail.default))
  in
  let corpus = Corpus.of_list [ "retail", db ] in
  let scores = List.map (fun h -> h.Corpus.score) in
  let all = Corpus.run corpus "jeans store" in
  let top = Corpus.run ~limit:3 corpus "jeans store" in
  check int "limited" 3 (List.length top);
  (* the limited list is a prefix of the full ranking *)
  check bool "prefix of full ranking" true
    (scores top = List.filteri (fun i _ -> i < 3) (scores all))

let suites =
  [
    ( "datagen.gen",
      [
        Alcotest.test_case "expand_counts" `Quick test_expand_counts;
        Alcotest.test_case "deal" `Quick test_deal;
        Alcotest.test_case "pick_zipf mismatch" `Quick test_pick_zipf_mismatch;
        Alcotest.test_case "text root" `Quick test_gen_document_text_root;
      ] );
    ( "datagen.paper_example",
      [
        Alcotest.test_case "counts" `Quick test_paper_example_counts;
        Alcotest.test_case "determinism" `Quick test_paper_example_seedless_determinism;
      ] );
    ( "datagen.retail",
      [
        Alcotest.test_case "config shapes" `Quick test_retail_config_shapes;
        Alcotest.test_case "seed sensitivity" `Quick test_retail_seed_changes_content;
      ] );
    ( "datagen.movies_bib",
      [
        Alcotest.test_case "movie titles unique" `Quick test_movies_unique_titles;
        Alcotest.test_case "bib heterogeneous" `Quick test_bib_two_entity_tags_under_root;
      ] );
    ( "datagen.nested",
      [
        Alcotest.test_case "recursive paths" `Quick test_nested_recursive_paths;
        Alcotest.test_case "entities under entities" `Quick test_nested_entities_under_entities;
        Alcotest.test_case "validates" `Quick test_nested_validates;
        Alcotest.test_case "deep search" `Quick test_nested_search_returns_innermost;
        Alcotest.test_case "sized" `Quick test_nested_sized;
      ] );
    ( "search.relaxed",
      [
        Alcotest.test_case "no drop" `Quick test_relaxed_no_drop_needed;
        Alcotest.test_case "drops rarest" `Quick test_relaxed_drops_rarest;
        Alcotest.test_case "gives up" `Quick test_relaxed_gives_up;
      ] );
    ( "snippet.ranked",
      [
        Alcotest.test_case "sorted" `Quick test_run_ranked_sorted;
        Alcotest.test_case "limit keeps best" `Quick test_run_ranked_limit_keeps_best;
      ] );
  ]
