(* Index format v2, layer by layer: the block codec primitives, the
   block-compressed posting lists (proven equivalent to the plain
   {!Postings} binary searches), the packed inverted index (proven
   equivalent to the plain one on the hotpath corpus), and the mmap
   snapshot (roundtrip, integrity, fingerprint pairing). *)

module Codec = Extract_store.Codec
module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index
module Packed_postings = Extract_store.Packed_postings
module Persist = Extract_store.Persist
module Postings = Extract_store.Postings
module Snapshot = Extract_store.Snapshot
module Engine = Extract_search.Engine
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Pipeline = Extract_snippet.Pipeline

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let tmp_file name = Filename.concat (Filename.get_temp_dir_name ()) name

let contains hay needle =
  let n = String.length needle in
  let rec scan i = i + n <= String.length hay && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* Codec block primitives *)

let test_fixed64_roundtrip () =
  let w = Codec.writer () in
  List.iter (Codec.write_fixed64 w) [ 0L; 1L; -1L; 0x00FF01FE02FD03FCL; Int64.max_int ];
  let r = Codec.reader (Codec.contents w) in
  List.iter
    (fun v -> check bool (Int64.to_string v) true (Codec.read_fixed64 r = v))
    [ 0L; 1L; -1L; 0x00FF01FE02FD03FCL; Int64.max_int ];
  check bool "consumed" true (Codec.at_end r)

let test_fixed64_truncated () =
  Alcotest.check_raises "truncated fixed64" (Codec.Truncated "fixed64 overruns input")
    (fun () -> ignore (Codec.read_fixed64 (Codec.reader "1234567")))

let test_sorted_block_roundtrip () =
  let arr = Array.init 100 (fun i -> (i * 7) + 3) in
  let w = Codec.writer () in
  Codec.write_sorted_block w arr ~lo:10 ~hi:60;
  let out = Array.make 100 (-1) in
  Codec.read_sorted_block (Codec.reader (Codec.contents w)) out ~lo:10 ~hi:60;
  check bool "middle range equal" true (Array.sub out 10 50 = Array.sub arr 10 50);
  check int "outside untouched" (-1) out.(9)

let test_sorted_block_rejects_zero_delta () =
  let w = Codec.writer () in
  (* hand-encode 5 then a zero gap *)
  Codec.write_varint w 5;
  Codec.write_varint w 0;
  let out = Array.make 2 0 in
  Alcotest.check_raises "zero delta"
    (Codec.Corrupt "sorted block: zero delta (not strictly ascending)") (fun () ->
      Codec.read_sorted_block (Codec.reader (Codec.contents w)) out ~lo:0 ~hi:2)

(* ------------------------------------------------------------------ *)
(* Packed postings: exact sizes around block boundaries *)

let block = Codec.block_size

let ascending n = Array.init n (fun i -> (i * 3) + 1)

let boundary_sizes = [ 0; 1; block - 1; block; block + 1; (2 * block) - 1; 2 * block; (2 * block) + 1 ]

let test_roundtrip_at_block_boundaries () =
  List.iter
    (fun n ->
      let arr = ascending n in
      let p = Packed_postings.of_array arr in
      check int (Printf.sprintf "length %d" n) n (Packed_postings.length p);
      check int
        (Printf.sprintf "nblocks %d" n)
        ((n + block - 1) / block)
        (Packed_postings.nblocks p);
      check bool (Printf.sprintf "roundtrip %d" n) true (Packed_postings.to_array p = arr))
    boundary_sizes

let test_codec_embedding_at_block_boundaries () =
  List.iter
    (fun n ->
      let arr = ascending n in
      let w = Codec.writer () in
      Packed_postings.encode w (Packed_postings.of_array arr);
      let p = Packed_postings.decode (Codec.reader (Codec.contents w)) in
      check bool (Printf.sprintf "decode . encode %d" n) true (Packed_postings.to_array p = arr))
    boundary_sizes

let test_of_array_rejects_bad_input () =
  List.iter
    (fun (label, arr) ->
      check bool label true
        (match Packed_postings.of_array arr with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ "descending", [| 5; 3 |]; "duplicate", [| 5; 5 |]; "negative", [| -1; 3 |] ]

let test_decode_rejects_inconsistent_blocks () =
  let w = Codec.writer () in
  Codec.write_varint w 1000 (* count *) ;
  Codec.write_varint w 1 (* nblocks: wrong, needs 8 *);
  check bool "corrupt block count" true
    (match Packed_postings.decode (Codec.reader (Codec.contents w)) with
    | _ -> false
    | exception Codec.Corrupt _ -> true)

(* ------------------------------------------------------------------ *)
(* Property: packed searches = plain Postings searches *)

let gen_posting_list =
  QCheck.Gen.(
    let* n = int_range 0 400 in
    let* gaps = list_repeat n (int_range 1 5) in
    let arr = Array.of_list gaps in
    let acc = ref 0 in
    let out =
      Array.map
        (fun g ->
          acc := !acc + g;
          !acc)
        arr
    in
    return out)

let arb_posting_list =
  QCheck.make
    ~print:(fun a -> String.concat "," (Array.to_list (Array.map string_of_int a)))
    gen_posting_list

let prop_packed_equals_plain =
  QCheck.Test.make ~count:200 ~name:"packed searches = plain searches" arb_posting_list
    (fun arr ->
      let p = Packed_postings.of_array arr in
      let max_probe = (if Array.length arr = 0 then 0 else arr.(Array.length arr - 1)) + 3 in
      let ok = ref (Packed_postings.to_array p = arr) in
      for x = 0 to max_probe do
        ok :=
          !ok
          && Packed_postings.lower_bound p x = Postings.lower_bound arr x
          && Packed_postings.mem p x = Array.exists (fun v -> v = x) arr
      done;
      !ok)

let prop_packed_roundtrips_through_codec =
  QCheck.Test.make ~count:200 ~name:"packed decode . encode = id" arb_posting_list
    (fun arr ->
      let w = Codec.writer () in
      Packed_postings.encode w (Packed_postings.of_array arr);
      Packed_postings.to_array (Packed_postings.decode (Codec.reader (Codec.contents w)))
      = arr)

(* ------------------------------------------------------------------ *)
(* Equivalence on the hotpath corpus: a packed index answers every query
   entry point exactly like the plain index it came from. *)

let retail_doc =
  lazy
    (Document.of_document
       (Extract_datagen.Retail.generate Extract_datagen.Retail.default))

let retail_db = lazy (Pipeline.build (Lazy.force retail_doc))

let queries =
  [ "apparel retailer"; "apparel store"; "suit"; "store texas"; "retailer"; "nosuchword" ]

let result_fingerprint r = Result_tree.root r, Array.to_list (Result_tree.members r)

let test_packed_index_query_equivalence () =
  let db = Lazy.force retail_db in
  let idx = Pipeline.index db in
  let packed = Inverted_index.pack idx in
  check bool "packed" true (Inverted_index.is_packed packed);
  check bool "plain stays plain" false (Inverted_index.is_packed idx);
  check int "same token count" (Inverted_index.token_count idx)
    (Inverted_index.token_count packed);
  check int "same postings size" (Inverted_index.postings_size idx)
    (Inverted_index.postings_size packed);
  let kinds = Pipeline.kinds db in
  List.iter
    (fun q ->
      check bool (q ^ " lookup") true
        (List.for_all
           (fun kw -> Inverted_index.lookup idx kw = Inverted_index.lookup packed kw)
           (Query.keywords (Query.of_string q)));
      List.iter
        (fun semantics ->
          let plain = Engine.run ~semantics idx kinds (Query.of_string q) in
          let comp = Engine.run ~semantics packed kinds (Query.of_string q) in
          check bool
            (Printf.sprintf "%s under %s" q (Engine.string_of_semantics semantics))
            true
            (List.map result_fingerprint plain = List.map result_fingerprint comp))
        Engine.all_semantics)
    queries

let test_packed_match_kind_and_complete () =
  let db = Lazy.force retail_db in
  let idx = Pipeline.index db in
  let packed = Inverted_index.pack idx in
  let doc = Inverted_index.document idx in
  (* every (keyword, posting) and some misses *)
  List.iter
    (fun kw ->
      Array.iter
        (fun node ->
          check bool
            (Printf.sprintf "match_kind %s @%d" kw node)
            true
            (Inverted_index.match_kind idx ~keyword:kw ~node
            = Inverted_index.match_kind packed ~keyword:kw ~node))
        (Inverted_index.lookup idx kw);
      check bool (kw ^ " miss") true
        (Inverted_index.match_kind idx ~keyword:kw ~node:(Document.node_count doc - 1)
        = Inverted_index.match_kind packed ~keyword:kw ~node:(Document.node_count doc - 1)))
    [ "apparel"; "suit"; "store" ];
  List.iter
    (fun prefix ->
      check bool ("complete " ^ prefix) true
        (Inverted_index.complete idx prefix = Inverted_index.complete packed prefix))
    [ "s"; "ap"; "reta"; "zzz" ];
  check bool "smaller when packed" true
    (Inverted_index.postings_bytes packed < Inverted_index.postings_bytes idx)

(* ------------------------------------------------------------------ *)
(* Snapshot roundtrip and integrity *)

let test_snapshot_roundtrip () =
  let db = Lazy.force retail_db in
  let doc = Pipeline.document db in
  let idx = Pipeline.index db in
  let path = tmp_file "extract_test_snapshot.snap" in
  Snapshot.save path doc idx;
  let doc', idx' = Snapshot.load path in
  check bool "mapped index is packed" true (Inverted_index.is_packed idx');
  check string "fingerprint survives" (Persist.fingerprint doc) (Persist.fingerprint doc');
  check int "node count" (Document.node_count doc) (Document.node_count doc');
  check int "element count" (Document.element_count doc) (Document.element_count doc');
  (* full structural equality via the persist repr *)
  check bool "document repr equal" true
    (Document.Internal.to_repr doc = Document.Internal.to_repr doc');
  let kinds = Pipeline.kinds db in
  List.iter
    (fun q ->
      let plain = Engine.run idx kinds (Query.of_string q) in
      let mapped = Engine.run idx' kinds (Query.of_string q) in
      check bool (q ^ " via snapshot") true
        (List.map result_fingerprint plain = List.map result_fingerprint mapped))
    queries;
  let stats = Snapshot.verify path in
  check int "verify node count" (Document.node_count doc) stats.Snapshot.v_node_count;
  check string "verify fingerprint" (Persist.fingerprint doc) stats.Snapshot.v_fingerprint;
  Sys.remove path

let test_snapshot_sniffable () =
  let db = Lazy.force retail_db in
  let data = Snapshot.encode (Pipeline.document db) (Pipeline.index db) in
  check bool "sniffs as XTRSNAP2" true (Persist.sniff_magic data = Some Snapshot.magic)

let test_snapshot_detects_corruption () =
  let db = Lazy.force retail_db in
  let path = tmp_file "extract_test_snapshot_corrupt.snap" in
  Snapshot.save path (Pipeline.document db) (Pipeline.index db);
  (* flip a byte just past the header page — deterministically inside the
     first section ("tag"), which MD5 verification must flag *)
  let ic = open_in_bin path in
  let data = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let pos = 4096 + 4 in
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc;
  check bool "verify flags the damage" true
    (match Snapshot.verify path with
    | _ -> false
    | exception Codec.Corrupt msg ->
      contains msg "tag" && contains msg "checksum");
  Sys.remove path

(* Regression: load decodes kinds/meta/index into the heap and used to
   trust them unchecked — a flipped byte inside the index section loaded
   cleanly and then served unsorted or wrong posting lists, or raised
   Truncated at query time. *)
let test_snapshot_load_checks_index () =
  let db = Lazy.force retail_db in
  let path = tmp_file "extract_test_snapshot_index.snap" in
  Snapshot.save path (Pipeline.document db) (Pipeline.index db);
  (* sections follow the header page in file order, each padded to a page *)
  let align n = (n + 4095) / 4096 * 4096 in
  let rec locate off = function
    | [ ("index", len) ] -> off, len
    | (_, len) :: rest -> locate (off + align len) rest
    | [] -> Alcotest.fail "no index section"
  in
  let off, len = locate 4096 (Snapshot.verify path).Snapshot.v_sections in
  let ic = open_in_bin path in
  let data = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let pos = off + (len / 2) in
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0x01));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc;
  check bool "load flags the damaged index section" true
    (match Snapshot.load path with
    | _ -> false
    | exception Codec.Corrupt msg ->
      contains msg "\"index\"" && contains msg "checksum");
  Sys.remove path

let test_snapshot_empty_file_diagnostic () =
  let path = tmp_file "extract_test_snapshot_empty.snap" in
  let oc = open_out_bin path in
  close_out oc;
  check bool "empty snapshot names path and magic" true
    (match Snapshot.load path with
    | _ -> false
    | exception Codec.Truncated msg ->
      contains msg path && contains msg Snapshot.magic);
  Sys.remove path

let test_snapshot_rejects_mismatched_truncation () =
  let db = Lazy.force retail_db in
  let path = tmp_file "extract_test_snapshot_trunc.snap" in
  Snapshot.save path (Pipeline.document db) (Pipeline.index db);
  let ic = open_in_bin path in
  let full = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full / 2));
  close_out oc;
  check bool "truncated snapshot rejected" true
    (match Snapshot.load path with
    | _ -> false
    | exception (Codec.Truncated _ | Codec.Corrupt _) -> true);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Persist empty-file regression (the PR's satellite bugfix) *)

let test_persist_empty_file_diagnostic () =
  let path = tmp_file "extract_test_empty.xtr" in
  let oc = open_out_bin path in
  close_out oc;
  List.iter
    (fun (label, magic, run) ->
      check bool label true
        (match run () with
        | _ -> false
        | exception Codec.Truncated msg -> contains msg path && contains msg magic))
    [
      "load", Persist.magic, (fun () -> ignore (Persist.load path));
      "load_bundle", Persist.bundle_magic, (fun () -> ignore (Persist.load_bundle path));
      ( "load_index",
        Persist.index_magic,
        fun () ->
          ignore (Persist.load_index path ~doc:(Pipeline.document (Lazy.force retail_db))) );
    ];
  Sys.remove path

let properties = List.map QCheck_alcotest.to_alcotest
    [ prop_packed_equals_plain; prop_packed_roundtrips_through_codec ]

let suites =
  [
    ( "packed.codec",
      [
        Alcotest.test_case "fixed64 roundtrip" `Quick test_fixed64_roundtrip;
        Alcotest.test_case "fixed64 truncated" `Quick test_fixed64_truncated;
        Alcotest.test_case "sorted block roundtrip" `Quick test_sorted_block_roundtrip;
        Alcotest.test_case "sorted block zero delta" `Quick test_sorted_block_rejects_zero_delta;
      ] );
    ( "packed.postings",
      [
        Alcotest.test_case "roundtrip at block boundaries" `Quick
          test_roundtrip_at_block_boundaries;
        Alcotest.test_case "codec embedding at boundaries" `Quick
          test_codec_embedding_at_block_boundaries;
        Alcotest.test_case "rejects bad input" `Quick test_of_array_rejects_bad_input;
        Alcotest.test_case "rejects inconsistent blocks" `Quick
          test_decode_rejects_inconsistent_blocks;
      ]
      @ properties );
    ( "packed.index",
      [
        Alcotest.test_case "query equivalence" `Quick test_packed_index_query_equivalence;
        Alcotest.test_case "match_kind and complete" `Quick test_packed_match_kind_and_complete;
      ] );
    ( "packed.snapshot",
      [
        Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "sniffable magic" `Quick test_snapshot_sniffable;
        Alcotest.test_case "detects corruption" `Quick test_snapshot_detects_corruption;
        Alcotest.test_case "load checks the index section" `Quick test_snapshot_load_checks_index;
        Alcotest.test_case "empty file diagnostic" `Quick test_snapshot_empty_file_diagnostic;
        Alcotest.test_case "rejects truncation" `Quick test_snapshot_rejects_mismatched_truncation;
      ] );
    ( "packed.persist",
      [
        Alcotest.test_case "empty file regression" `Quick test_persist_empty_file_diagnostic;
      ] );
  ]
