(* The per-result Fig. 4 components against their previous code
   ([Fig4_reference], kept verbatim): tag-name matching decided once per
   tag, attribute values read without a copy, and result-tree membership
   as an interval test or a binary search instead of a hash set. Plus
   unit tests for membership at the edges of a result tree. *)

module Document = Extract_store.Document
module Node_kind = Extract_store.Node_kind
module Dataguide = Extract_store.Dataguide
module Inverted_index = Extract_store.Inverted_index
module Tokenizer = Extract_store.Tokenizer
module Engine = Extract_search.Engine
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline
module Return_entity = Extract_snippet.Return_entity
module Result_key = Extract_snippet.Result_key
module Xml = Extract_xml.Types
module Ref = Fig4_reference

let check = Alcotest.check
let bool = Alcotest.bool
let ints = Alcotest.(list int)

(* ------------------------------------------------------------------ *)
(* Equivalence with the previous code *)

(* Random documents over a small tag vocabulary, so queries hit entity
   and attribute tag names. Values carry padding, whitespace-only and
   empty text; attributes come with one text child, several, or none;
   some elements mix text with elements; repeated siblings make starred
   (entity) paths. *)
let fig4_tags = [| "item"; "name"; "price"; "shop"; "row"; "note" |]

let fig4_values = [| " red "; "blue"; "red  blue"; "   "; ""; "\tgreen\n"; "shop"; "Item 7 " |]

let fig4_queries =
  [ "item"; "name red"; "price blue"; "shop"; "green"; "nosuch"; "row note"; "red"; "item price green" ]

let gen_fig4_doc =
  let open QCheck.Gen in
  let tag = oneofa fig4_tags in
  let text = map Xml.text (oneofa fig4_values) in
  let leaf =
    frequency
      [
        4, map2 (fun t v -> Xml.element t [ v ]) tag text;
        1, map2 Xml.element tag (list_size (int_range 2 3) text);
        1, map (fun t -> Xml.element t []) tag;
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          2, leaf;
          1, map2 Xml.element tag (list_size (int_range 1 3) (oneof [ text; node (depth - 1) ]));
          2, map2 Xml.element tag (list_size (int_range 1 4) (node (depth - 1)));
          ( 2,
            map3
              (fun outer t kids -> Xml.element outer (List.map (Xml.element t) kids))
              tag tag
              (list_size (int_range 2 4) (list_size (int_range 1 3) (node (depth - 1)))) );
        ]
  in
  map (fun kids -> Document.of_xml (Xml.element "root" kids)) (list_size (int_range 1 4) (node 3))

(* Datagen queries name entities and values; add ones that name
   attribute tags, and ones built only from tokens that are no tag. *)
let datagen_queries db =
  let kinds = Pipeline.kinds db in
  let doc = Pipeline.document db in
  let guide = Pipeline.dataguide db in
  let generated =
    Extract_datagen.Workload.generate
      { Extract_datagen.Workload.default with Extract_datagen.Workload.queries = 6 }
      kinds
  in
  let attribute_tags =
    Node_kind.attribute_paths kinds
    |> List.map (Dataguide.path_tag_name guide)
    |> List.sort_uniq String.compare
    |> List.filteri (fun i _ -> i < 4)
  in
  let untagged =
    List.filter_map
      (fun q ->
        match List.filter (fun t -> Document.tag_of_name doc t = None) (Tokenizer.tokens q) with
        | [] -> None
        | toks -> Some (String.concat " " toks))
      generated
  in
  let with_values =
    List.map2 (fun a v -> a ^ " " ^ v) attribute_tags
      (List.filteri (fun i _ -> i < List.length attribute_tags)
         (untagged @ List.init 4 (fun _ -> "nosuch")))
  in
  generated @ attribute_tags @ with_values @ untagged

let fig4_corpora =
  lazy (List.map (fun db -> db, datagen_queries db) (Lazy.force Test_extensions.html_corpora))

let key_triple =
  Option.map (fun { Result_key.entity; attribute; value } -> entity, attribute, value)

let ref_key_triple =
  Option.map (fun { Ref.Result_key.entity; attribute; value } -> entity, attribute, value)

(* Every component on one result, against the reference. Membership and
   attribute values are compared on every node from two before the root
   to two past the end of its subtree; matches are restricted from each
   keyword's postings and from the list of all nodes, which straddles
   the result on both sides. *)
let agrees db query r =
  let doc = Pipeline.document db and kinds = Pipeline.kinds db and keys = Pipeline.keys db in
  let q = Query.of_string query in
  let rr = Ref.Result_tree.of_tree r in
  let root = Result_tree.root r in
  let lo = max 0 (root - 2)
  and hi = min (Document.node_count doc - 1) (Document.subtree_last doc root + 2) in
  let nodes = List.init (hi - lo + 1) (fun i -> lo + i) in
  let all_nodes = Array.init (Document.node_count doc) Fun.id in
  let postings =
    all_nodes :: List.map (Inverted_index.lookup (Pipeline.index db)) (Query.keywords q)
  in
  Return_entity.return_entities kinds r q = Ref.Return_entity.return_entities kinds rr q
  && Return_entity.highest_entities kinds r = Ref.Return_entity.highest_entities kinds rr
  && Return_entity.supporting_entities kinds r q = Ref.Return_entity.supporting_entities kinds rr q
  && key_triple (Result_key.key_of_result keys kinds r q)
     = ref_key_triple (Ref.Result_key.key_of_result keys kinds rr q)
  && List.for_all (fun n -> Result_tree.mem r n = Ref.Result_tree.mem rr n) nodes
  && List.for_all
       (fun n ->
         (not (Document.is_element doc n))
         || String.equal (Node_kind.attribute_value kinds n) (Ref.Node_kind.attribute_value kinds n))
       nodes
  && List.for_all
       (fun p -> Result_tree.restrict_matches r p = Ref.Result_tree.restrict_matches rr p)
       postings

let prop_fig4_equals_reference =
  QCheck.Test.make ~count:100 ~name:"Fig. 4 per-result components = the previous code"
    QCheck.(
      make
        Gen.(
          pair
            (pair
               (oneof [ map (fun i -> `Datagen i) nat; map (fun d -> `Random d) gen_fig4_doc ])
               bool)
            (triple nat (oneofl Engine.all_semantics)
               (oneofl [ Engine.Full_subtree; Engine.Match_paths ]))))
    (fun ((source, mapped), (qi, semantics, shape)) ->
      let db, queries =
        match source with
        | `Datagen i ->
          let corpora = Lazy.force fig4_corpora in
          List.nth corpora (i mod List.length corpora)
        | `Random doc -> Pipeline.build doc, fig4_queries
      in
      let db = if mapped then Test_extensions.snapshot_mapped db else db in
      let query = List.nth queries (qi mod List.length queries) in
      Engine.run ~semantics ~shape ~limit:12 (Pipeline.index db) (Pipeline.kinds db)
        (Query.of_string query)
      |> List.for_all (agrees db query))

(* ------------------------------------------------------------------ *)
(* Membership at the edges *)

(* 0 dept
   ├─ 1 group
   │   ├─ 2 person (3 name "ada" 4)
   │   └─ 5 person (6 name "alan" 7, 8 skill "logic" 9)
   └─ 10 group
       ├─ 11 person (12 name "ada" 13, 14 skill "logic" 15)
       └─ 16 note ("logic" 17) *)
let dept =
  lazy
    (Document.load_string
       "<dept>\
        <group><person><name>ada</name></person>\
        <person><name>alan</name><skill>logic</skill></person></group>\
        <group><person><name>ada</name><skill>logic</skill></person>\
        <note>logic</note></group>\
        </dept>")

let members_by_mem r =
  List.filter (Result_tree.mem r) (List.init (Document.node_count (Lazy.force dept) + 2) (fun i -> i - 1))

let all_postings = Array.init 18 Fun.id

let test_root_only () =
  let d = Lazy.force dept in
  let r = Result_tree.of_members d ~root:5 [] in
  check ints "only the root is a member" [ 5 ] (members_by_mem r);
  check ints "restricted to the root" [ 5 ] (Result_tree.restrict_matches r all_postings);
  let leaf = Result_tree.full d 4 in
  check ints "full leaf" [ 4 ] (members_by_mem leaf)

let test_match_paths_with_gaps () =
  let d = Lazy.force dept in
  let r = Result_tree.match_paths d ~root:0 ~matches:[ 8; 14 ] in
  let expected = [ 0; 1; 5; 8; 10; 11; 14 ] in
  check ints "members" expected (Array.to_list (Result_tree.members r));
  check ints "mem = members" expected (members_by_mem r);
  check ints "restricted = members" expected (Result_tree.restrict_matches r all_postings)

let test_match_paths_contiguous () =
  let d = Lazy.force dept in
  (* 1, 2, 3 are consecutive ids, but 4..9 stay outside though they lie
     in group 1's subtree *)
  let r = Result_tree.match_paths d ~root:1 ~matches:[ 3 ] in
  check ints "mem" [ 1; 2; 3 ] (members_by_mem r);
  check bool "next node in the subtree is out" false (Result_tree.mem r 4);
  check ints "restricted" [ 1; 2; 3 ] (Result_tree.restrict_matches r all_postings)

let test_just_outside () =
  let d = Lazy.force dept in
  let r = Result_tree.full d 5 in
  check bool "root - 1" false (Result_tree.mem r 4);
  check bool "root" true (Result_tree.mem r 5);
  check bool "last" true (Result_tree.mem r 9);
  check bool "last + 1" false (Result_tree.mem r 10);
  let tail = Result_tree.full d 10 in
  check bool "document end" true (Result_tree.mem tail 17);
  check bool "past the document" false (Result_tree.mem tail 18)

let test_restrict_straddling () =
  let d = Lazy.force dept in
  check ints "full" [ 5; 7; 9 ]
    (Result_tree.restrict_matches (Result_tree.full d 5) [| 2; 4; 5; 7; 9; 10; 15 |]);
  check ints "match paths" [ 0; 8; 14 ]
    (Result_tree.restrict_matches
       (Result_tree.match_paths d ~root:0 ~matches:[ 8; 14 ])
       [| 0; 2; 8; 9; 14; 17 |])

let suites =
  [
    ( "fig4.membership",
      [
        Alcotest.test_case "root-only tree" `Quick test_root_only;
        Alcotest.test_case "match paths with gaps" `Quick test_match_paths_with_gaps;
        Alcotest.test_case "contiguous match paths" `Quick test_match_paths_contiguous;
        Alcotest.test_case "just outside the interval" `Quick test_just_outside;
        Alcotest.test_case "restrict straddling postings" `Quick test_restrict_straddling;
      ] );
    ( "fig4.reference",
      [ QCheck_alcotest.to_alcotest prop_fig4_equals_reference ] );
  ]
