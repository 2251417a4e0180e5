(* Tests for the extension modules: snippet configuration and goal
   ablation, query-biased feature ordering, cross-result differentiation,
   the XRank-style ranker, XSearch interconnection semantics, binary
   persistence, the XPath-lite selector and the HTML view. *)

module Document = Extract_store.Document
module Node_kind = Extract_store.Node_kind
module Key_miner = Extract_store.Key_miner
module Inverted_index = Extract_store.Inverted_index
module Snapshot = Extract_store.Snapshot
module Codec = Extract_store.Codec
module Path_query = Extract_store.Path_query
module Query = Extract_search.Query
module Engine = Extract_search.Engine
module Ranker = Extract_search.Ranker
module Xsearch = Extract_search.Xsearch
module Result_tree = Extract_search.Result_tree
open Extract_snippet

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let contains_substring hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec loop i = i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1)) in
  ln = 0 || loop 0

let league =
  "<league>\
   <team><name>Sharks</name>\
   <player><pname>Ann</pname><pos>guard</pos></player>\
   <player><pname>Bo</pname><pos>guard</pos></player>\
   <player><pname>Cy</pname><pos>center</pos></player></team>\
   <team><name>Owls</name>\
   <player><pname>Di</pname><pos>wing</pos></player></team>\
   </league>"

let db_of src = Pipeline.of_xml_string src

(* ------------------------------------------------------------------ *)
(* Config and goal ablation *)

let items_of il = List.map (fun (e : Ilist.entry) -> e.Ilist.item) (Ilist.entries il)

let test_config_keywords_only () =
  let db = db_of league in
  let r = List.hd (Pipeline.search db "guard team") in
  let il =
    Pipeline.ilist_of ~config:Config.keywords_only db r (Query.of_string "guard team")
  in
  check bool "only keywords" true
    (List.for_all
       (function
         | Ilist.Keyword _ -> true
         | Ilist.Entity_name _ | Ilist.Result_key _ | Ilist.Dominant_feature _ -> false)
       (items_of il))

let test_config_goals_independent () =
  let db = db_of league in
  (* "cy team": the dominant feature guard survives display dedup (the
     query "guard team" would absorb it into the keyword item) *)
  let r = List.hd (Pipeline.search db "cy team") in
  let q = Query.of_string "cy team" in
  let has_kind pred il = List.exists pred (items_of il) in
  let is_entity = function Ilist.Entity_name _ -> true | _ -> false in
  let is_key = function Ilist.Result_key _ -> true | _ -> false in
  let is_feature = function Ilist.Dominant_feature _ -> true | _ -> false in
  let without_entities =
    Pipeline.ilist_of
      ~config:{ Config.default with Config.include_entity_names = false }
      db r q
  in
  check bool "no entity names" false (has_kind is_entity without_entities);
  check bool "key still there" true (has_kind is_key without_entities);
  check bool "features still there" true (has_kind is_feature without_entities);
  let without_key =
    Pipeline.ilist_of ~config:{ Config.default with Config.include_result_key = false } db r q
  in
  check bool "no key" false (has_kind is_key without_key);
  let without_features =
    Pipeline.ilist_of ~config:{ Config.default with Config.include_features = false } db r q
  in
  check bool "no features" false (has_kind is_feature without_features)

let test_config_max_features () =
  (* the paper example has six surviving dominant features (Fig. 3);
     capping at two keeps the top two by score: Houston, outwear *)
  let db =
    Pipeline.build
      (Document.of_document (Extract_datagen.Paper_example.document ()))
  in
  let q = Query.of_string Extract_datagen.Paper_example.query in
  let r = List.hd (Pipeline.search db Extract_datagen.Paper_example.query) in
  let il =
    Pipeline.ilist_of ~config:{ Config.default with Config.max_features = Some 2 } db r q
  in
  let feature_values =
    List.filter_map
      (function
        | Ilist.Dominant_feature (f, _) -> Some f.Feature.value
        | _ -> None)
      (items_of il)
  in
  check (Alcotest.list string) "top two by dominance" [ "Houston"; "outwear" ] feature_values

let test_config_frequency_order () =
  (* By_frequency must order the feature block by raw occurrences. *)
  let db = db_of league in
  let r = List.hd (Pipeline.search db "team") in
  let q = Query.of_string "team" in
  let il =
    Pipeline.ilist_of
      ~config:{ Config.default with Config.feature_order = Config.By_frequency }
      db r q
  in
  let occs =
    List.filter_map
      (function
        | Ilist.Dominant_feature (_, s) -> Some s.Feature.occurrences
        | _ -> None)
      (items_of il)
  in
  check bool "occurrences non-increasing" true
    (List.sort (fun a b -> compare b a) occs = occs)

(* ------------------------------------------------------------------ *)
(* Query bias *)

let test_query_bias_hot_entities () =
  let db = db_of league in
  let r = List.hd (Pipeline.search db "center") in
  let bias =
    Query_bias.make (Pipeline.kinds db) (Pipeline.index db) r (Query.of_string "center")
  in
  (* "center" matches pos 17 under player 14 (and lifts to team 1) *)
  let hot = Query_bias.hot_entities bias in
  check bool "the center player is hot" true (List.mem 14 hot)

let test_query_bias_affinity_range () =
  let db = db_of league in
  let r = List.hd (Pipeline.search db "guard") in
  let q = Query.of_string "guard" in
  let bias = Query_bias.make (Pipeline.kinds db) (Pipeline.index db) r q in
  let analysis = Feature.analyze (Pipeline.kinds db) r in
  List.iter
    (fun (f, s) ->
      let a = Query_bias.affinity bias analysis f in
      check bool "affinity in [0,1]" true (a >= 0.0 && a <= 1.0);
      let b = Query_bias.biased_score bias analysis f s in
      check bool "biased >= base" true (b >= s.Feature.score -. 1e-9))
    (Feature.all analysis)

let test_query_bias_prefers_cooccurring () =
  (* Two equally dominant features; only one lives in the entity that
     matches the query keyword. The biased order must put it first. *)
  let src =
    "<r>\
     <e><k>match</k><a>alpha</a></e>\
     <e><k>other</k><b>beta</b></e>\
     <e><k>other2</k><b>beta</b></e>\
     <e><k>match</k><a>alpha</a></e>\
     </r>"
  in
  let db = db_of src in
  let r = Result_tree.full (Pipeline.document db) 0 in
  let q = Query.of_string "match" in
  let il =
    Pipeline.ilist_of
      ~config:{ Config.default with Config.feature_order = Config.Query_biased }
      db r q
  in
  let feature_values =
    List.filter_map
      (function
        | Ilist.Dominant_feature (f, _) -> Some f.Feature.value
        | _ -> None)
      (items_of il)
  in
  (* alpha co-occurs with "match"; beta does not *)
  match List.filter (fun v -> v = "alpha" || v = "beta") feature_values with
  | "alpha" :: _ -> ()
  | other ->
    Alcotest.failf "expected alpha first, got [%s]" (String.concat ";" other)

(* ------------------------------------------------------------------ *)
(* Differentiator *)

let test_differentiator_idf () =
  let db = db_of league in
  let results = Pipeline.search db "player" in
  let analyses = List.map (Feature.analyze (Pipeline.kinds db)) results in
  let differ = Differentiator.make analyses in
  check int "result count" (List.length results) (Differentiator.result_count differ);
  (* with "player" the results are the four player entities: guard appears
     in two of them, center in exactly one *)
  let guard = { Feature.entity = "player"; attribute = "pos"; value = "guard" } in
  let center = { Feature.entity = "player"; attribute = "pos"; value = "center" } in
  check int "guard rf" 2 (Differentiator.result_frequency differ guard);
  check int "center rf" 1 (Differentiator.result_frequency differ center);
  check bool "rarer is more distinctive" true
    (Differentiator.distinctiveness differ center > Differentiator.distinctiveness differ guard)

let test_differentiator_shared_penalized () =
  (* one value present in both results, one unique to each *)
  let src =
    "<r>\
     <g><x><v>common</v></x><x><v>common</v></x><x><v>left</v></x></g>\
     <g><x><v>common</v></x><x><v>common</v></x><x><v>right</v></x></g>\
     </r>"
  in
  let db = db_of src in
  let results = Pipeline.search ~semantics:Engine.Slca db "x" in
  (* slca of "x": each x node... use the g subtrees instead *)
  ignore results;
  let doc = Pipeline.document db in
  let r1 = Result_tree.full doc (Option.get (Path_query.first doc "/r/g[1]")) in
  let r2 = Result_tree.full doc (Option.get (Path_query.first doc "/r/g[2]")) in
  let kinds = Pipeline.kinds db in
  let differ = Differentiator.make [ Feature.analyze kinds r1; Feature.analyze kinds r2 ] in
  let common = { Feature.entity = "x"; attribute = "v"; value = "common" } in
  let unique = { Feature.entity = "x"; attribute = "v"; value = "left" } in
  check bool "shared feature less distinctive" true
    (Differentiator.distinctiveness differ common < Differentiator.distinctiveness differ unique)

let test_differentiated_run_keeps_bound () =
  let db = db_of league in
  List.iter
    (fun (r : Pipeline.snippet_result) ->
      check bool "bound" true
        (Snippet_tree.edge_count r.Pipeline.selection.Selector.snippet <= 4))
    (Pipeline.run_differentiated ~bound:4 db "player")

let test_differentiator_single_result_noop () =
  let db = db_of league in
  let plain = Pipeline.run ~bound:6 db "guard team" in
  let diff = Pipeline.run_differentiated ~bound:6 db "guard team" in
  check int "one result each" (List.length plain) (List.length diff);
  List.iter2
    (fun (a : Pipeline.snippet_result) (b : Pipeline.snippet_result) ->
      check (Alcotest.list string) "same ilist"
        (List.map (fun (e : Ilist.entry) -> Ilist.display e.Ilist.item) (Ilist.entries a.Pipeline.ilist))
        (List.map (fun (e : Ilist.entry) -> Ilist.display e.Ilist.item) (Ilist.entries b.Pipeline.ilist)))
    plain diff

let test_reorder_features_keeps_fixed_prefix () =
  let db = db_of league in
  let r = List.hd (Pipeline.search db "guard team") in
  let q = Query.of_string "guard team" in
  let il = Pipeline.ilist_of db r q in
  let reordered = Ilist.reorder_features ~score:(fun _ s -> -.s.Feature.score) il in
  let non_features l =
    List.filter (function Ilist.Dominant_feature _ -> false | _ -> true) (items_of l)
  in
  check bool "fixed items unchanged" true (non_features il = non_features reordered);
  check int "same length" (Ilist.length il) (Ilist.length reordered);
  (* ranks renumbered sequentially *)
  List.iteri
    (fun i (e : Ilist.entry) -> check int "rank" i e.Ilist.rank)
    (Ilist.entries reordered)

(* ------------------------------------------------------------------ *)
(* Ranker *)

let test_ranker_idf_rare_beats_common () =
  let db = db_of league in
  let ranker = Ranker.make (Pipeline.index db) in
  (* "guard" appears twice, "center" once: center is rarer *)
  check bool "idf(center) > idf(guard)" true
    (Ranker.idf ranker "center" > Ranker.idf ranker "guard");
  check bool "idf unknown maximal" true
    (Ranker.idf ranker "zzz" >= Ranker.idf ranker "center")

let test_ranker_prefers_specific_result () =
  let db = db_of league in
  let doc = Pipeline.document db in
  let ranker = Ranker.make (Pipeline.index db) in
  let q = Query.of_string "guard" in
  let player = Result_tree.full doc 4 in
  let team = Result_tree.full doc 1 in
  check bool "small specific result scores higher" true
    (Ranker.score ranker q player > Ranker.score ranker q team)

let test_ranker_sorted_desc () =
  let db = db_of league in
  let ranker = Ranker.make (Pipeline.index db) in
  let q = Query.of_string "player" in
  let ranked = Ranker.rank ranker q (Pipeline.search db "player") in
  let scores = List.map snd ranked in
  check bool "descending" true (List.sort (fun a b -> compare b a) scores = scores)

let test_ranker_zero_for_no_match () =
  let db = db_of league in
  let doc = Pipeline.document db in
  let ranker = Ranker.make (Pipeline.index db) in
  Alcotest.check (Alcotest.float 1e-9) "no matches, zero score" 0.0
    (Ranker.score ranker (Query.of_string "zebra") (Result_tree.full doc 1))

let test_ranker_bad_decay () =
  let db = db_of league in
  Alcotest.check_raises "decay 0" (Invalid_argument "Ranker.make: decay must be in (0, 1]")
    (fun () -> ignore (Ranker.make ~decay:0.0 (Pipeline.index db)))

(* Partial application: [Ranker.score t q] looks each keyword up once
   per query, and every result it scores must get the float the
   per-result formula gives — a lookup and an [idf] for every keyword of
   every result — bit for bit, on plain and on packed indexes. *)
let reference_score ranker index ~decay query result =
  let doc = Result_tree.document result in
  let root_depth = Document.depth doc (Result_tree.root result) in
  let per_keyword k =
    match Result_tree.restrict_matches result (Inverted_index.lookup index k) with
    | [] -> 0.0
    | matches ->
      let best_decay =
        List.fold_left
          (fun best m -> max best (decay ** float_of_int (Document.depth doc m - root_depth)))
          0.0 matches
      in
      let tf = log (1.0 +. float_of_int (List.length matches)) in
      Ranker.idf ranker k *. best_decay *. (1.0 +. tf)
  in
  let keyword_score =
    List.fold_left (fun acc k -> acc +. per_keyword k) 0.0 (Query.keywords query)
  in
  keyword_score *. (1.0 +. (1.0 /. log (2.0 +. float_of_int (Result_tree.element_size result))))

let ranker_corpora =
  lazy
    (List.concat_map
       (fun xml ->
         let db = Pipeline.build (Document.of_document xml) in
         let packed =
           Pipeline.of_parts (Pipeline.document db) (Inverted_index.pack (Pipeline.index db))
         in
         let queries =
           Extract_datagen.Workload.generate
             { Extract_datagen.Workload.default with Extract_datagen.Workload.queries = 16 }
             (Pipeline.kinds db)
           @ [ "store"; "retailer apparel"; "nosuchword store" ]
         in
         [ db, queries; packed, queries ])
       [
         Extract_datagen.Retail.generate
           { Extract_datagen.Retail.default with Extract_datagen.Retail.retailers = 3 };
         Extract_datagen.Movies.sized 12;
         Extract_datagen.Auction.sized 20;
         Extract_datagen.Bib.sized 20;
         Extract_datagen.Courses.sized 20;
       ])

let prop_ranker_partial_application =
  QCheck.Test.make ~count:60 ~name:"score applied once per query = per-result formula, bitwise"
    QCheck.(make Gen.(triple nat nat (oneofl [ 0.8; 0.5; 1.0 ])))
    (fun (ci, qi, decay) ->
      let corpora = Lazy.force ranker_corpora in
      let db, queries = List.nth corpora (ci mod List.length corpora) in
      let q = List.nth queries (qi mod List.length queries) in
      let query = Query.of_string q in
      let index = Pipeline.index db in
      let ranker = Ranker.make ~decay index in
      let score = Ranker.score ranker query in
      List.for_all
        (fun r ->
          Int64.equal
            (Int64.bits_of_float (score r))
            (Int64.bits_of_float (reference_score ranker index ~decay query r)))
        (Pipeline.search db q))

(* ------------------------------------------------------------------ *)
(* XSearch *)

let test_interconnected_basic () =
  let doc = Document.load_string league in
  (* pname 5 and pos 7 under the same player: interconnected *)
  check bool "same entity" true (Xsearch.interconnected doc 5 7);
  (* pname 5 (player 4) and pname 10 (player 9): path crosses two distinct
     player nodes -> NOT interconnected *)
  check bool "across two players" false (Xsearch.interconnected doc 5 10);
  (* a node with itself *)
  check bool "self" true (Xsearch.interconnected doc 5 5)

let test_interconnected_ancestor () =
  let doc = Document.load_string league in
  (* team 1 and pname 5: a is ancestor of b, interior = player 4 only *)
  check bool "ancestor chain" true (Xsearch.interconnected doc 1 5)

let test_xsearch_results () =
  let db = db_of league in
  let index = Pipeline.index db in
  (* ann + guard: both under player 4 -> interconnected answer *)
  let rs = Xsearch.compute index (Query.of_string "ann guard") in
  check bool "at least one answer" true (rs <> []);
  (* ann + wing: ann in team 1, wing in team 2; slca = league root, path
     crosses two team nodes -> rejected *)
  let rejected = Xsearch.compute index (Query.of_string "ann wing") in
  check int "cross-team answer rejected" 0 (List.length rejected)

let test_engine_xsearch_semantics () =
  let db = db_of league in
  let results = Pipeline.search ~semantics:Engine.Xsearch db "ann guard" in
  check bool "via engine" true (results <> []);
  check bool "string roundtrip" true
    (Engine.semantics_of_string "xsearch" = Some Engine.Xsearch)

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_roundtrip_ints () =
  let w = Codec.writer () in
  let values = [ 0; 1; 127; 128; 300; 1 lsl 40; -1; -300; max_int / 2; min_int / 2 ] in
  List.iter (Codec.write_int w) values;
  let r = Codec.reader (Codec.contents w) in
  List.iter (fun v -> check int "int roundtrip" v (Codec.read_int r)) values;
  check bool "at end" true (Codec.at_end r)

let test_codec_roundtrip_strings () =
  let w = Codec.writer () in
  let values = [ ""; "a"; String.make 1000 'x'; "caf\xc3\xa9 \x00 bytes" ] in
  List.iter (Codec.write_string w) values;
  let r = Codec.reader (Codec.contents w) in
  List.iter (fun v -> check string "string roundtrip" v (Codec.read_string r)) values

let test_codec_corrupt () =
  (* premature end of input is Truncated (an interrupted write), not
     Corrupt (damaged data): recovery code treats the two differently *)
  (match Codec.read_varint (Codec.reader "") with
  | exception Codec.Truncated _ -> ()
  | _ -> Alcotest.fail "expected Truncated");
  (match Codec.read_string (Codec.reader "\x05ab") with
  | exception Codec.Truncated _ -> ()
  | _ -> Alcotest.fail "expected Truncated on truncated string");
  (* an overlong varint is structural damage, hence Corrupt *)
  match Codec.read_varint (Codec.reader (String.make 12 '\xff')) with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on overlong varint"

(* Nine bytes whose last sets bit 6 decode past max_int into OCaml's
   sign bit: once read as -1 and handed to String.sub as a length. *)
let test_codec_varint_above_max_int () =
  let nine = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  (match Codec.read_varint (Codec.reader nine) with
  | exception Codec.Corrupt _ -> ()
  | n -> Alcotest.failf "expected Corrupt, decoded %d" n);
  (match Codec.read_string (Codec.reader (nine ^ "XTRSNAP2")) with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt from read_string");
  (* max_int itself still round-trips *)
  let w = Codec.writer () in
  Codec.write_varint w max_int;
  check int "max_int" max_int (Codec.read_varint (Codec.reader (Codec.contents w)));
  (* a count above the bytes left is refused before anything is sized by it *)
  let w = Codec.writer () in
  Codec.write_varint w (1 lsl 50);
  match Codec.read_count (Codec.reader (Codec.contents w ^ "abc")) with
  | exception Codec.Corrupt _ -> ()
  | n -> Alcotest.failf "count %d accepted" n

let test_codec_negative_varint () =
  let w = Codec.writer () in
  Alcotest.check_raises "negative varint"
    (Invalid_argument "Codec.write_varint: negative") (fun () -> Codec.write_varint w (-1))

(* ------------------------------------------------------------------ *)
(* Persist: the snapshot image round trip *)

let docs_equal a b =
  Document.node_count a = Document.node_count b
  && Document.to_xml a 0 = Document.to_xml b 0

(* save to a scratch image and map it back *)
let through_image ?(index = Inverted_index.build) doc =
  let path = Filename.temp_file "extract_persist" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save path doc (index doc);
      Snapshot.load path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let test_persist_roundtrip () =
  let doc = Document.load_string league in
  let loaded, _ = through_image doc in
  check bool "structure preserved" true (docs_equal doc loaded);
  check int "element count" (Document.element_count doc) (Document.element_count loaded)

let test_persist_dtd_preserved () =
  let doc =
    Document.load_string "<!DOCTYPE r [<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)>]><r><a>1</a></r>"
  in
  let loaded, _ = through_image doc in
  match Document.dtd loaded with
  | None -> Alcotest.fail "dtd lost"
  | Some dtd ->
    check bool "star info survives" true
      (Extract_xml.Dtd.is_star_child dtd ~parent:"r" ~child:"a" = Some true)

let test_persist_file_roundtrip () =
  let doc = Document.of_document (Extract_datagen.Movies.sized 10) in
  let path = Filename.temp_file "extract_persist" ".snap" in
  Snapshot.save path doc (Inverted_index.build doc);
  let loaded, _ = Snapshot.load path in
  let checked, _, generation = Snapshot.load_checked path in
  Sys.remove path;
  check bool "file roundtrip" true (docs_equal doc loaded);
  check bool "checked load agrees" true (docs_equal doc checked);
  check bool "no live generation outside live stores" true (generation = None)

let test_persist_rejects_garbage () =
  let path = Filename.temp_file "extract_persist" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path ("not an image" ^ String.make 5000 'x');
      (match Snapshot.load path with
      | exception (Codec.Corrupt _ | Codec.Truncated _) -> ()
      | _ -> Alcotest.fail "expected Corrupt");
      (* correct magic, an older version: rejected by version *)
      let w = Codec.writer () in
      Codec.write_string w Snapshot.magic;
      Codec.write_varint w 1;
      write_file path (Codec.contents w ^ String.make 5000 '\000');
      match Snapshot.load path with
      | exception Codec.Corrupt msg ->
        check bool "names the version" true (contains_substring msg "version")
      | _ -> Alcotest.fail "expected version rejection")

let test_persist_index_roundtrip () =
  let doc = Document.of_document (Extract_datagen.Retail.generate Extract_datagen.Retail.default) in
  let index = Inverted_index.build doc in
  let _, loaded = through_image ~index:(fun _ -> index) doc in
  check int "token count" (Inverted_index.token_count index) (Inverted_index.token_count loaded);
  check int "postings size" (Inverted_index.postings_size index)
    (Inverted_index.postings_size loaded);
  (* every keyword's posting list survives identically *)
  List.iter
    (fun tok ->
      check bool (Printf.sprintf "postings of %s" tok) true
        (Inverted_index.lookup index tok = Inverted_index.lookup loaded tok))
    (Inverted_index.vocabulary index);
  (* match kinds (the tag-token table) survive too *)
  check bool "tag kind" true
    (Inverted_index.match_kind loaded ~keyword:"retailer" ~node:1
    = Inverted_index.match_kind index ~keyword:"retailer" ~node:1)

let test_persist_index_file_and_search () =
  let doc = Document.of_document (Extract_datagen.Paper_example.document ()) in
  let index = Inverted_index.build doc in
  let _, loaded = through_image ~index:(fun _ -> index) doc in
  let kinds = Node_kind.of_document doc in
  let q = Extract_search.Query.of_string Extract_datagen.Paper_example.query in
  let a = Extract_search.Engine.run index kinds q in
  let b = Extract_search.Engine.run loaded kinds q in
  check bool "same search results" true
    (List.map Result_tree.root a = List.map Result_tree.root b)

(* offset of a section: they follow the header page, each page-aligned *)
let section_offset path name =
  let rec locate off = function
    | [] -> Alcotest.failf "no %s section" name
    | (n, len) :: rest -> if n = name then off, len else locate ((off + len + 4095) / 4096 * 4096) rest
  in
  locate 4096 (Snapshot.verify path).Snapshot.v_sections

let damaged_image ~section ~at doc =
  let path = Filename.temp_file "extract_persist" ".snap" in
  Snapshot.save path doc (Inverted_index.build doc);
  let off, len = section_offset path section in
  let b = Bytes.of_string (read_file path) in
  let pos = off + at len in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
  write_file path (Bytes.to_string b);
  path

let test_persist_index_rejects_garbage () =
  (* garbage inside the index section, with its digest re-sealed so the
     decoder itself must refuse it *)
  let doc = Document.load_string league in
  let image = Snapshot.encode doc (Inverted_index.build doc) in
  let path = Filename.temp_file "extract_persist" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path
        (Snapshot.Internal.reseal image (fun name body ->
             if name = "index" then String.sub body 0 (String.length body / 2) ^ "garbage"
             else body));
      match Snapshot.load path with
      | exception (Codec.Corrupt _ | Codec.Truncated _) -> ()
      | _ -> Alcotest.fail "expected Corrupt")

let test_persist_index_compression_wins () =
  (* gap encoding must beat 8-byte-per-posting raw storage comfortably *)
  let doc = Document.of_document (Extract_datagen.Retail.scaled 2000) in
  let index = Inverted_index.build doc in
  let path = Filename.temp_file "extract_persist" ".snap" in
  Snapshot.save path doc index;
  let _, encoded = section_offset path "index" in
  Sys.remove path;
  let raw = 8 * Inverted_index.postings_size index in
  check bool
    (Printf.sprintf "encoded %d < raw postings %d" encoded raw)
    true (encoded < raw)

let test_persist_pipeline_equivalent () =
  (* searching a persisted-and-reloaded database gives identical snippets *)
  let doc = Document.of_document (Extract_datagen.Paper_example.document ()) in
  let loaded, index = through_image doc in
  let out db =
    Pipeline.run ~bound:8 db Extract_datagen.Paper_example.query
    |> List.map (fun (r : Pipeline.snippet_result) ->
           Snippet_tree.render r.Pipeline.selection.Selector.snippet)
  in
  check bool "identical output" true (out (Pipeline.build doc) = out (Pipeline.of_parts loaded index))

(* ------------------------------------------------------------------ *)
(* Persist: seals, fingerprints, fault injection *)

let with_faults spec f =
  match Extract_util.Faults.configure spec with
  | Error e -> Alcotest.failf "configure %S: %s" spec e
  | Ok () -> Fun.protect ~finally:Extract_util.Faults.clear f

let test_persist_checksum_detects_bitflip () =
  (* a flipped byte in a section the fast load decodes into the heap *)
  let path = damaged_image ~section:"meta" ~at:(fun len -> len - 1) (Document.load_string league) in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Snapshot.load path with
      | exception Codec.Corrupt msg ->
        check bool
          (Printf.sprintf "checksum named in %S" msg)
          true
          (contains_substring msg "checksum")
      | _ -> Alcotest.fail "expected Corrupt on a flipped meta byte")

let test_persist_bundle_checksum_detects_bitflip () =
  (* a flipped byte in the mapped bulk: the fast load maps it unchecked,
     the checked load (live recovery, extract check) rejects it *)
  let path = damaged_image ~section:"textblob" ~at:(fun len -> len / 2) (Document.load_string league) in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Snapshot.load_checked path with
      | exception Codec.Corrupt msg ->
        check bool "names the section" true (contains_substring msg "textblob")
      | _ -> Alcotest.fail "expected Corrupt on a flipped bulk byte")

let test_persist_fingerprint_mismatch () =
  (* an image whose index section (digest intact) was recorded against
     another arena: a clean rejection, not nonsense postings *)
  let doc_a = Document.of_document (Extract_datagen.Paper_example.document ()) in
  let doc_b = Document.load_string league in
  let foreign_index =
    let image_b = Snapshot.encode doc_b (Inverted_index.build doc_b) in
    let found = ref "" in
    ignore
      (Snapshot.Internal.reseal image_b (fun name body ->
           if name = "index" then found := body;
           body));
    !found
  in
  let image =
    Snapshot.Internal.reseal
      (Snapshot.encode doc_a (Inverted_index.build doc_a))
      (fun name body -> if name = "index" then foreign_index else body)
  in
  let path = Filename.temp_file "extract_fpr" ".snap" in
  write_file path image;
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Snapshot.load path with
      | exception Codec.Corrupt msg ->
        check bool
          (Printf.sprintf "fingerprint named in %S" msg)
          true
          (contains_substring msg "fingerprint")
      | _ -> Alcotest.fail "mismatched arena/index pair accepted")

let test_persist_read_fault_point () =
  let doc = Document.load_string league in
  let path = Filename.temp_file "extract_fault" ".snap" in
  Snapshot.save path doc (Inverted_index.build doc);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_faults "snapshot.map:fail" (fun () ->
          (match Snapshot.load path with
          | exception Codec.Corrupt msg ->
            check bool "names the injection" true (contains_substring msg "injected")
          | _ -> Alcotest.fail "snapshot.map fault did not fire");
          check bool "fired counted" true (Extract_util.Faults.fired "snapshot.map" >= 1));
      (* disarmed again: the same file loads *)
      match Snapshot.load path with
      | _ -> ()
      | exception Codec.Corrupt msg -> Alcotest.failf "clean load failed: %s" msg)

let test_persist_write_fault_point () =
  let doc = Document.load_string league in
  let index = Inverted_index.build doc in
  let path = Filename.temp_file "extract_fault" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_faults "snapshot.write:once,snapshot.rename:once" (fun () ->
          (match Snapshot.save path doc index with
          | exception Extract_util.Faults.Injected ("snapshot.write", _) -> ()
          | _ -> Alcotest.fail "snapshot.write fault did not fire");
          (match Snapshot.save path doc index with
          | exception Extract_util.Faults.Injected ("snapshot.rename", _) -> ()
          | _ -> Alcotest.fail "snapshot.rename fault did not fire");
          (* the interrupted write left its fsync'd temp file, not the image *)
          check bool "temp file left" true (Sys.file_exists (path ^ ".tmp"));
          Sys.remove (path ^ ".tmp");
          (* [once]: the retry goes through *)
          Snapshot.save path doc index;
          match Snapshot.load path with
          | _ -> ()
          | exception Codec.Corrupt msg -> Alcotest.failf "retried write unreadable: %s" msg))

(* ------------------------------------------------------------------ *)
(* Path_query *)

let paper_doc = lazy (Document.of_document (Extract_datagen.Paper_example.document ()))

let test_path_child_steps () =
  let doc = Lazy.force paper_doc in
  let retailers = Path_query.select_string doc "/retailers/retailer" in
  check int "three retailers" 3 (List.length retailers);
  check int "root select" 1 (List.length (Path_query.select_string doc "/retailers"))

let test_path_descendant () =
  let doc = Lazy.force paper_doc in
  let cities = Path_query.select_string doc "//city" in
  check int "12 city nodes" 12 (List.length cities);
  let deep = Path_query.select_string doc "/retailers//category" in
  check bool "many categories" true (List.length deep > 1000)

let test_path_wildcard () =
  let doc = Lazy.force paper_doc in
  let children = Path_query.select_string doc "/retailers/*" in
  check int "wildcard = retailers" 3 (List.length children)

let test_path_positional () =
  let doc = Lazy.force paper_doc in
  match Path_query.first doc "/retailers/retailer[2]/name" with
  | Some n -> check string "second retailer" "Levis" (String.trim (Document.immediate_text doc n))
  | None -> Alcotest.fail "no match"

let test_path_equality_predicate () =
  let doc = Lazy.force paper_doc in
  let austin = Path_query.select_string doc "//store[city=\"Austin\"]" in
  check int "one Austin store" 1 (List.length austin);
  let houston = Path_query.select_string doc "//store[city=\"Houston\"]" in
  check int "six Houston stores" 6 (List.length houston)

let test_path_no_match_and_errors () =
  let doc = Lazy.force paper_doc in
  check int "wrong root" 0 (List.length (Path_query.select_string doc "/nope"));
  check int "overshoot position" 0
    (List.length (Path_query.select_string doc "/retailers/retailer[99]"));
  List.iter
    (fun bad ->
      match Path_query.parse bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "expected parse failure on %S" bad)
    [ ""; "retailer"; "/a[0]"; "/a[x=y]"; "/a[" ]

let test_path_to_string_roundtrip () =
  List.iter
    (fun p ->
      let parsed = Path_query.parse p in
      check string "canonical" p (Path_query.to_string parsed))
    [ "/a/b"; "//c"; "/a//b[3]"; "/a/*[2]"; "//store[city=\"Austin\"]" ]

(* ------------------------------------------------------------------ *)
(* Html_view *)

let test_html_escape () =
  check string "escaped" "&lt;a&gt; &amp; &quot;b&quot;" (Html_view.escape "<a> & \"b\"")

let test_html_page_structure () =
  let db = db_of league in
  let results = Pipeline.run ~bound:4 db "guard team" in
  let page = Html_view.result_page ~query:"guard team" ~bound:4 results in
  List.iter
    (fun fragment ->
      check bool (Printf.sprintf "page contains %s" fragment) true
        (contains_substring page fragment))
    [ "<!DOCTYPE html>"; "guard team"; "class=\"snippet\""; "IList:"; "<details>";
      "Sharks"; "</html>" ]

let test_html_values_escaped () =
  let db = db_of "<r><x><v>a&amp;b</v></x><x><v>c</v></x></r>" in
  let results = Pipeline.run ~bound:4 db "v a" in
  let page = Html_view.result_page ~query:"a" ~bound:4 results in
  check bool "ampersand escaped" true (contains_substring page "a&amp;b");
  check bool "raw ampersand absent" false (contains_substring page "a&b<")

let test_html_write_page () =
  let db = db_of league in
  let results = Pipeline.run ~bound:4 db "guard" in
  let path = Filename.temp_file "extract_html" ".html" in
  Html_view.write_page ~path ~query:"guard" ~bound:4 results;
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check bool "file written" true (contains_substring content "</html>")

(* Byte identity: [Html_view.result_page] writes every page exactly as
   the previous renderer did ([Html_reference], kept verbatim). Inputs:
   the datagen corpora, random documents whose tags, values, titles and
   queries carry the four escaped bytes ([&], [<], [>], the double
   quote) and whitespace edge cases (leading, trailing,
   whitespace-only, several text children per element), each also
   mapped back from an XTRSNAP2 snapshot (blob-backed texts), and
   degraded snippets from an expired deadline. *)

let hostile_words = [| "a&b"; "<x>"; "q\"t"; "p>"; "plain"; "zeta" |]

let hostile_values =
  [| " lead"; "trail "; "  both  "; "   "; "\t\n"; ""; "a&b <x> \"q\"t\" p>"; "plain zeta";
     "x\r\n"; "&amp;" |]

let gen_hostile_doc =
  let open QCheck.Gen in
  let tag = oneofa [| "a&b"; "x<y"; "q\"t"; "p>"; "item"; "name"; "row" |] in
  let text = map Extract_xml.Types.text (oneofa hostile_values) in
  let rec node depth =
    if depth = 0 then map2 (fun t v -> Extract_xml.Types.element t [ v ]) tag text
    else
      frequency
        [
          3, map2 (fun t v -> Extract_xml.Types.element t [ v ]) tag text;
          (* several text children, and text mixed with elements *)
          1, map2 Extract_xml.Types.element tag (list_size (int_range 2 3) text);
          1, map2 Extract_xml.Types.element tag (list_size (int_range 1 3) (oneof [ text; node (depth - 1) ]));
          3, map2 Extract_xml.Types.element tag (list_size (int_range 1 4) (node (depth - 1)));
        ]
  in
  map
    (fun kids -> Document.of_xml (Extract_xml.Types.element "root" kids))
    (list_size (int_range 1 4) (node 3))

let html_corpora =
  lazy
    (List.map
       (fun xml -> Pipeline.build (Document.of_document xml))
       [
         Extract_datagen.Retail.generate
           { Extract_datagen.Retail.default with Extract_datagen.Retail.retailers = 3 };
         Extract_datagen.Movies.sized 12;
         Extract_datagen.Auction.sized 20;
         Extract_datagen.Bib.sized 20;
         Extract_datagen.Courses.sized 20;
       ])

let snapshot_mapped db =
  let path = Filename.temp_file "extract_html" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Extract_store.Snapshot.save path (Pipeline.document db) (Pipeline.index db);
      let doc, index = Extract_store.Snapshot.load path in
      Pipeline.of_parts doc index)

let same_page ?title ~query ~bound results =
  String.equal
    (Html_view.result_page ?title ~query ~bound results)
    (Html_reference.result_page ?title ~query ~bound results)

let html_titles = [| None; Some "eXtract — retail"; Some "T&C <\"x\"> >"; Some "" |]

let prop_html_byte_identical =
  QCheck.Test.make ~count:80 ~name:"result_page = the previous renderer, byte for byte"
    QCheck.(
      make
        Gen.(
          pair
            (pair (oneof [ map (fun i -> `Datagen i) nat; map (fun d -> `Hostile d) gen_hostile_doc ]) bool)
            (quad nat (int_range 0 8) (oneofa html_titles) bool)))
    (fun ((source, mapped), (qi, bound, title, degrade)) ->
      let db, queries =
        match source with
        | `Datagen i ->
          let corpora = Lazy.force html_corpora in
          let db = List.nth corpora (i mod List.length corpora) in
          ( db,
            Extract_datagen.Workload.generate
              { Extract_datagen.Workload.default with Extract_datagen.Workload.queries = 8 }
              (Pipeline.kinds db) )
        | `Hostile doc ->
          ( Pipeline.build doc,
            Array.to_list hostile_words @ [ "plain a&b"; "zeta \"q\"t <x>"; "lead trail both" ] )
      in
      let db = if mapped then snapshot_mapped db else db in
      let q = List.nth queries (qi mod List.length queries) in
      let deadline = if degrade then Some (Extract_util.Deadline.after (-1.0)) else None in
      let results = Pipeline.run ~bound ?deadline db q in
      same_page ?title ~query:q ~bound results)

let test_html_degraded_identical () =
  let db = db_of league in
  let results = Pipeline.run ~bound:4 ~deadline:(Extract_util.Deadline.after (-1.0)) db "guard" in
  check bool "degraded snippets rendered" true
    (results <> [] && List.for_all (fun r -> r.Pipeline.degraded) results);
  check bool "degraded page identical" true (same_page ~query:"guard" ~bound:4 results)

(* shard and live pages, built through Corpus.query as the server's
   /shards/search and /live/search build them *)
let test_html_segment_pages_identical () =
  let xml seed =
    Extract_xml.Printer.document_to_string ~indent:None
      (Extract_datagen.Retail.generate
         { Extract_datagen.Retail.default with Extract_datagen.Retail.seed; retailers = 2 })
  in
  let queries = [ "store"; "retailer apparel"; "store texas"; "nosuchword" ] in
  let pages run =
    List.iter
      (fun q ->
        let results = List.map (fun (h : Corpus.hit) -> h.Corpus.result) (run q) in
        check bool (Printf.sprintf "page for %S identical" q) true
          (same_page ~title:"eXtract — segments" ~query:q ~bound:6 results))
      queries
  in
  let shards = Shard_set.split ~shards:3 (Document.load_string (xml 3)) in
  pages (fun q -> Shard_set.run ~bound:6 ~limit:10 shards q);
  let dir = Filename.temp_file "extract_html_live" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let live = Live_corpus.open_dir dir in
  Fun.protect
    ~finally:(fun () -> Live_corpus.close live)
    (fun () ->
      Live_corpus.add live ~name:"a.xml" ~xml:(xml 4);
      Live_corpus.add live ~name:"b.xml" ~xml:(xml 5);
      pages (fun q -> Live_corpus.run ~bound:6 ~limit:10 live q))

let suites =
  [
    ( "ext.config",
      [
        Alcotest.test_case "keywords only" `Quick test_config_keywords_only;
        Alcotest.test_case "independent goals" `Quick test_config_goals_independent;
        Alcotest.test_case "max features" `Quick test_config_max_features;
        Alcotest.test_case "frequency order" `Quick test_config_frequency_order;
      ] );
    ( "ext.query_bias",
      [
        Alcotest.test_case "hot entities" `Quick test_query_bias_hot_entities;
        Alcotest.test_case "affinity range" `Quick test_query_bias_affinity_range;
        Alcotest.test_case "prefers co-occurring" `Quick test_query_bias_prefers_cooccurring;
      ] );
    ( "ext.differentiator",
      [
        Alcotest.test_case "idf" `Quick test_differentiator_idf;
        Alcotest.test_case "shared penalized" `Quick test_differentiator_shared_penalized;
        Alcotest.test_case "bound kept" `Quick test_differentiated_run_keeps_bound;
        Alcotest.test_case "single result noop" `Quick test_differentiator_single_result_noop;
        Alcotest.test_case "reorder keeps prefix" `Quick test_reorder_features_keeps_fixed_prefix;
      ] );
    ( "ext.ranker",
      [
        Alcotest.test_case "idf ordering" `Quick test_ranker_idf_rare_beats_common;
        Alcotest.test_case "specificity" `Quick test_ranker_prefers_specific_result;
        Alcotest.test_case "sorted" `Quick test_ranker_sorted_desc;
        Alcotest.test_case "zero score" `Quick test_ranker_zero_for_no_match;
        Alcotest.test_case "bad decay" `Quick test_ranker_bad_decay;
        QCheck_alcotest.to_alcotest prop_ranker_partial_application;
      ] );
    ( "ext.xsearch",
      [
        Alcotest.test_case "interconnected" `Quick test_interconnected_basic;
        Alcotest.test_case "ancestor chain" `Quick test_interconnected_ancestor;
        Alcotest.test_case "answers" `Quick test_xsearch_results;
        Alcotest.test_case "engine integration" `Quick test_engine_xsearch_semantics;
      ] );
    ( "ext.codec",
      [
        Alcotest.test_case "ints" `Quick test_codec_roundtrip_ints;
        Alcotest.test_case "strings" `Quick test_codec_roundtrip_strings;
        Alcotest.test_case "corrupt" `Quick test_codec_corrupt;
        Alcotest.test_case "negative varint" `Quick test_codec_negative_varint;
        Alcotest.test_case "varint above max_int" `Quick test_codec_varint_above_max_int;
      ] );
    ( "ext.persist",
      [
        Alcotest.test_case "roundtrip" `Quick test_persist_roundtrip;
        Alcotest.test_case "dtd preserved" `Quick test_persist_dtd_preserved;
        Alcotest.test_case "file roundtrip" `Quick test_persist_file_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_persist_rejects_garbage;
        Alcotest.test_case "pipeline equivalent" `Quick test_persist_pipeline_equivalent;
        Alcotest.test_case "index roundtrip" `Quick test_persist_index_roundtrip;
        Alcotest.test_case "index file + search" `Quick test_persist_index_file_and_search;
        Alcotest.test_case "index rejects garbage" `Quick test_persist_index_rejects_garbage;
        Alcotest.test_case "index compression" `Quick test_persist_index_compression_wins;
        Alcotest.test_case "checksum bitflip" `Quick test_persist_checksum_detects_bitflip;
        Alcotest.test_case "bundle bitflip" `Quick test_persist_bundle_checksum_detects_bitflip;
        Alcotest.test_case "fingerprint mismatch" `Quick test_persist_fingerprint_mismatch;
        Alcotest.test_case "read fault" `Quick test_persist_read_fault_point;
        Alcotest.test_case "write fault" `Quick test_persist_write_fault_point;
      ] );
    ( "ext.path_query",
      [
        Alcotest.test_case "child steps" `Quick test_path_child_steps;
        Alcotest.test_case "descendant" `Quick test_path_descendant;
        Alcotest.test_case "wildcard" `Quick test_path_wildcard;
        Alcotest.test_case "positional" `Quick test_path_positional;
        Alcotest.test_case "equality predicate" `Quick test_path_equality_predicate;
        Alcotest.test_case "misses and errors" `Quick test_path_no_match_and_errors;
        Alcotest.test_case "to_string" `Quick test_path_to_string_roundtrip;
      ] );
    ( "ext.html_view",
      [
        Alcotest.test_case "escape" `Quick test_html_escape;
        Alcotest.test_case "page structure" `Quick test_html_page_structure;
        Alcotest.test_case "values escaped" `Quick test_html_values_escaped;
        Alcotest.test_case "write page" `Quick test_html_write_page;
        Alcotest.test_case "degraded page identical" `Quick test_html_degraded_identical;
        Alcotest.test_case "segment pages identical" `Quick test_html_segment_pages_identical;
        QCheck_alcotest.to_alcotest prop_html_byte_identical;
      ] );
  ]
