(* Sharded query fan-out: splitting preserves every subtree below the
   root, provenance intervals tile the corpus, mask translation matches
   the global tombstone semantics, limits and deadlines apply to the
   merged answer, and a shard directory roundtrips through save_dir/load_dir. *)

module Codec = Extract_store.Codec
module Document = Extract_store.Document
module Engine = Extract_search.Engine
module Pipeline = Extract_snippet.Pipeline
module Shard_set = Extract_snippet.Shard_set

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let retail_doc =
  lazy
    (Document.of_document
       (Extract_datagen.Retail.generate Extract_datagen.Retail.default))

let retail_db = lazy (Pipeline.build (Lazy.force retail_doc))

let sharded = lazy (Shard_set.split ~shards:3 (Lazy.force retail_doc))

let queries = [ "apparel retailer"; "suit"; "store texas"; "retailer"; "nosuchword" ]

(* ------------------------------------------------------------------ *)
(* Splitting *)

let test_provenance_tiles_corpus () =
  let doc = Lazy.force retail_doc in
  let t = Lazy.force sharded in
  let k = Shard_set.shard_count t in
  check bool "at least one shard" true (k >= 1);
  check bool "at most requested" true (k <= 3);
  let expected_first = ref 1 in
  for i = 0 to k - 1 do
    let g0, g1 = Shard_set.provenance t i in
    check int (Printf.sprintf "shard %d contiguous" i) !expected_first g0;
    check bool (Printf.sprintf "shard %d non-empty" i) true (g1 >= g0);
    expected_first := g1 + 1
  done;
  check int "covers every node" (Document.node_count doc) !expected_first

let test_shard_docs_mirror_global () =
  let doc = Lazy.force retail_doc in
  let t = Lazy.force sharded in
  for i = 0 to Shard_set.shard_count t - 1 do
    let g0, g1 = Shard_set.provenance t i in
    let sdoc = Pipeline.document (Shard_set.shard_db t i) in
    check int
      (Printf.sprintf "shard %d node count" i)
      (g1 - g0 + 2) (Document.node_count sdoc);
    check bool "root tag copied" true
      (Document.tag_name sdoc 0 = Document.tag_name doc 0);
    (* every local node mirrors its global counterpart *)
    for local = 1 to Document.node_count sdoc - 1 do
      let g = Shard_set.to_global t ~shard:i local in
      if Document.is_element sdoc local then
        assert (Document.tag_name sdoc local = Document.tag_name doc g)
      else assert (Document.text sdoc local = Document.text doc g);
      assert (Document.depth sdoc local = Document.depth doc g);
      assert (Document.subtree_size sdoc local = Document.subtree_size doc g)
    done
  done

(* ------------------------------------------------------------------ *)
(* Query equivalence (SLCA: purely structural semantics, so shard-local
   answers must equal the unsharded answers rooted below the top-level
   children; spanning results root at the global root and are dropped
   on both sides of the comparison) *)

let global_roots_unsharded ?mask q =
  Pipeline.search ~semantics:Engine.Slca ?mask (Lazy.force retail_db) q
  |> List.map Extract_search.Result_tree.root
  |> List.filter (fun r -> r <> 0)
  |> List.sort compare

let global_roots_sharded ?mask q =
  Shard_set.run ~semantics:Engine.Slca ?mask (Lazy.force sharded) q
  |> List.map (fun h -> h.Shard_set.global_root)
  |> List.sort compare

let test_slca_equivalence () =
  List.iter
    (fun q ->
      check bool (q ^ ": sharded = unsharded") true
        (global_roots_sharded q = global_roots_unsharded q))
    queries

let test_hits_translate_roots () =
  let t = Lazy.force sharded in
  let hits = Shard_set.run t "retailer" in
  check bool "some hits" true (hits <> []);
  List.iter
    (fun h ->
      let g0, g1 = Shard_set.provenance t h.Shard_set.segment in
      check bool "root inside shard block" true
        (h.Shard_set.global_root >= g0 && h.Shard_set.global_root <= g1))
    hits

(* ------------------------------------------------------------------ *)
(* Mask translation *)

let test_translate_mask_intersects_and_shifts () =
  let t = Lazy.force sharded in
  let g0, g1 = Shard_set.provenance t 1 in
  (* full-corpus mask: the whole block is visible, shifted to local ids *)
  let full = Shard_set.translate_mask t ~shard:1 [| (0, max_int) |] in
  check bool "full mask keeps root" true (Array.exists (fun iv -> iv = (0, 0)) full);
  check bool "full mask covers block" true
    (Array.exists (fun (lo, hi) -> lo = 1 && hi = g1 - g0 + 1) full);
  (* a mask that misses the block: only the root survives *)
  let miss = Shard_set.translate_mask t ~shard:1 [| (0, g0 - 1) |] in
  check bool "missed block = root only" true (miss = [| (0, 0) |]);
  (* a mask that also hides the root: nothing visible *)
  let hidden = Shard_set.translate_mask t ~shard:1 [| (1, g0 - 1) |] in
  check int "hidden shard has empty mask" 0 (Array.length hidden);
  (* partial overlap shifts by g0 - 1 *)
  let partial = Shard_set.translate_mask t ~shard:1 [| (g0 + 2, g1 + 1000) |] in
  check bool "partial overlap" true (partial = [| (3, g1 - g0 + 1) |])

let test_masked_equivalence () =
  let doc = Lazy.force retail_doc in
  let t = Lazy.force sharded in
  (* hide shard 0's whole block (plus keep everything else visible) *)
  let _, h0 = Shard_set.provenance t 0 in
  let mask = [| (0, 0); (h0 + 1, Document.node_count doc - 1) |] in
  List.iter
    (fun q ->
      check bool (q ^ ": masked sharded = masked unsharded") true
        (global_roots_sharded ~mask q = global_roots_unsharded ~mask q);
      (* and nothing leaks from the hidden shard *)
      List.iter
        (fun h -> check bool "no hit from hidden shard" true (h.Shard_set.segment <> 0))
        (Shard_set.run ~semantics:Engine.Slca ~mask t q))
    queries

(* ------------------------------------------------------------------ *)
(* Deadlines and limits on the merged answer *)

let hit_key h = Shard_set.(h.segment, h.score, h.global_root)

(* Regression: Shard_set.run used to drop its caller's deadline on the
   floor, so /shards/search had no degradation path. An expired deadline
   must degrade the snippets, not raise and not change the hit set. *)
let test_run_deadline_degrades () =
  let t = Lazy.force sharded in
  let roots hits = List.sort compare (List.map (fun h -> h.Shard_set.global_root) hits) in
  let full = Shard_set.run t "retailer" in
  let expired = Extract_util.Deadline.after 0. in
  let hits = Shard_set.run ~deadline:expired t "retailer" in
  check bool "expired deadline still answers" true (hits <> []);
  check bool "hit roots unchanged under degradation" true (roots hits = roots full);
  check bool "snippets degraded rather than dropped" true
    (List.for_all (fun h -> h.Shard_set.result.Pipeline.degraded) hits);
  (* a generous deadline changes nothing *)
  let easy = Shard_set.run ~deadline:(Extract_util.Deadline.after 60.) t "retailer" in
  check bool "generous deadline = no deadline" true
    (List.map hit_key easy = List.map hit_key full)

let test_limit_bounds_merged_answer () =
  let t = Lazy.force sharded in
  let all = Shard_set.run t "retailer" in
  let top = Shard_set.run ~limit:2 t "retailer" in
  check bool "enough hits to truncate" true (List.length all > 2);
  check int "limit respected" 2 (List.length top);
  check bool "limit keeps the best" true
    (List.map hit_key top
    = List.map hit_key (List.filteri (fun i _ -> i < 2) all))

(* Regression: Shard_set.run used to cut each shard's ranking to [limit]
   before dropping results rooted at the shard-local root, so such a
   root could take the place of a real answer. Here the root is an ELCA
   of its own two <p> children and outranks the three <qN> answers. *)
let test_limit_counts_only_answers () =
  let answer i =
    Printf.sprintf "<q%d><a><b><c>alpha</c></b></a><a><b><c>beta</c></b></a></q%d>" i i
  in
  let doc =
    Document.load_string
      ("<db><p>alpha</p><p>beta</p>" ^ answer 1 ^ answer 2 ^ answer 3 ^ "</db>")
  in
  let t = Shard_set.split ~shards:1 doc in
  let run ?limit () =
    Shard_set.run ~semantics:Engine.Elca ?limit t "alpha beta"
  in
  check int "unlimited" 3 (List.length (run ()));
  check int "limit 3 keeps all three answers" 3 (List.length (run ~limit:3 ()));
  check bool "same hits" true (List.map hit_key (run ~limit:3 ()) = List.map hit_key (run ()))

(* ------------------------------------------------------------------ *)
(* The merge itself *)

let test_merge_scored_orders_and_tags () =
  let merged =
    Engine.merge_scored
      [| [ (5.0, "a0"); (1.0, "a1") ]; [ (5.0, "b0"); (2.0, "b1") ]; [] |]
  in
  check bool "ranked, ties to lower source" true
    (merged
    = [ (5.0, (0, "a0")); (5.0, (1, "b0")); (2.0, (1, "b1")); (1.0, (0, "a1")) ])

let test_merge_scored_limit () =
  let merged =
    Engine.merge_scored ~limit:2 [| [ (3.0, 'x') ]; [ (4.0, 'y'); (1.0, 'z') ] |]
  in
  check bool "limited" true (merged = [ (4.0, (1, 'y')); (3.0, (0, 'x')) ])

(* ------------------------------------------------------------------ *)
(* Persistence *)

let tmp_dir name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_save_load_roundtrip () =
  let t = Lazy.force sharded in
  let dir = tmp_dir "extract_test_shards" in
  Shard_set.save_dir dir t;
  check bool "is_shard_dir" true (Shard_set.is_shard_dir dir);
  check bool "plain file is not a shard dir" false
    (Shard_set.is_shard_dir (Filename.concat dir "shards.manifest"));
  let t2 = Shard_set.load_dir dir in
  check int "shard count" (Shard_set.shard_count t) (Shard_set.shard_count t2);
  for i = 0 to Shard_set.shard_count t - 1 do
    check bool
      (Printf.sprintf "provenance %d" i)
      true
      (Shard_set.provenance t i = Shard_set.provenance t2 i)
  done;
  List.iter
    (fun q ->
      let roots t =
        Shard_set.run ~semantics:Engine.Slca t q
        |> List.map (fun h -> h.Shard_set.segment, h.Shard_set.global_root)
      in
      check bool (q ^ ": loaded answers match") true (roots t = roots t2))
    queries

let test_empty_manifest_diagnostic () =
  let dir = tmp_dir "extract_test_shards_empty" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir "shards.manifest" in
  Out_channel.with_open_bin path (fun _ -> ());
  match Shard_set.load_dir dir with
  | _ -> Alcotest.fail "empty manifest should not load"
  | exception Codec.Truncated msg ->
    let has needle hay =
      let n = String.length needle and h = String.length hay in
      let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
      scan 0
    in
    check bool "names the path" true (has path msg);
    check bool "names the magic" true (has "XTRSHRDS" msg)

let test_corrupt_manifest_detected () =
  let t = Lazy.force sharded in
  let dir = tmp_dir "extract_test_shards_corrupt" in
  Shard_set.save_dir dir t;
  let path = Filename.concat dir "shards.manifest" in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let flipped = Bytes.of_string data in
  let mid = Bytes.length flipped / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xFF));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc flipped);
  (match Shard_set.load_dir dir with
  | _ -> Alcotest.fail "corrupt manifest should not load"
  | exception Codec.Corrupt _ -> ()
  | exception Codec.Truncated _ -> ());
  (* restore for any later run sharing the temp dir *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "shard.split",
      [
        case "provenance tiles the corpus" test_provenance_tiles_corpus;
        case "shard docs mirror the global doc" test_shard_docs_mirror_global;
      ] );
    ( "shard.query",
      [
        case "slca equivalence" test_slca_equivalence;
        case "hits translate into shard blocks" test_hits_translate_roots;
        case "deadline degrades, never raises" test_run_deadline_degrades;
        case "limit bounds the merged answer" test_limit_bounds_merged_answer;
        case "limit counts only answers" test_limit_counts_only_answers;
      ] );
    ( "shard.mask",
      [
        case "translate: intersect, shift, root rule"
          test_translate_mask_intersects_and_shifts;
        case "masked equivalence and isolation" test_masked_equivalence;
      ] );
    ( "shard.merge",
      [
        case "orders and tags sources" test_merge_scored_orders_and_tags;
        case "limit" test_merge_scored_limit;
      ] );
    ( "shard.persist",
      [
        case "save/load roundtrip" test_save_load_roundtrip;
        case "empty manifest diagnostic" test_empty_manifest_diagnostic;
        case "corrupt manifest detected" test_corrupt_manifest_detected;
      ] );
  ]
