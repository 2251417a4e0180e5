(* Tests for the crash-safe live corpus: journal framing and torn-tail
   recovery, snapshot generations, the visibility mask, fault-injected
   crash windows, and envelope damage edge cases. *)

module Codec = Extract_store.Codec
module Persist = Extract_store.Persist
module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index
module Journal = Extract_store.Journal
module Live = Extract_store.Live
module Engine = Extract_search.Engine
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Faults = Extract_util.Faults
open Extract_snippet

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string
let string_list = Alcotest.(list string)

let temp_dir () =
  let dir = Filename.temp_file "extract_live" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  data

let flip_byte path pos =
  let bytes = Bytes.of_string (read_file path) in
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0xff));
  write_file path (Bytes.to_string bytes)

let doc_a = "<doc><title>alpha storm</title><body>rivers and rain</body></doc>"
let doc_b = "<doc><title>beta storm</title><body>sunshine</body></doc>"
let doc_c = "<doc><title>gamma calm</title><body>rivers again</body></doc>"

let sample_records =
  [
    Journal.Add_doc { name = "a.xml"; xml = doc_a };
    Journal.Remove_doc "b.xml";
    Journal.Checkpoint 3;
    Journal.Add_doc { name = "c.xml"; xml = doc_c };
  ]

let record_eq (x : Journal.record) (y : Journal.record) =
  match x, y with
  | Add_doc a, Add_doc b -> String.equal a.name b.name && String.equal a.xml b.xml
  | Remove_doc a, Remove_doc b -> String.equal a b
  | Checkpoint a, Checkpoint b -> a = b
  | (Add_doc _ | Remove_doc _ | Checkpoint _), _ -> false

let write_journal dir records =
  let path = Filename.concat dir "journal.wal" in
  let w = Journal.open_append path in
  List.iter (Journal.append w) records;
  Journal.close w;
  path

(* ------------------------------------------------------------------ *)
(* Journal framing *)

let test_journal_roundtrip () =
  let dir = temp_dir () in
  let path = write_journal dir sample_records in
  let records, tail = Journal.read path in
  check bool "complete" true (tail = Journal.Complete);
  check int "count" (List.length sample_records) (List.length records);
  check bool "records equal" true (List.for_all2 record_eq sample_records records)

let test_journal_append_reopens () =
  let dir = temp_dir () in
  let path = write_journal dir [ List.hd sample_records ] in
  let w = Journal.open_append path in
  Journal.append w (Journal.Checkpoint 7);
  Journal.close w;
  let records, tail = Journal.read path in
  check bool "complete" true (tail = Journal.Complete);
  check int "count" 2 (List.length records);
  check bool "checkpoint survives" true (Journal.last_checkpoint records = Some 7)

let test_journal_missing_file () =
  let dir = temp_dir () in
  let records, tail = Journal.read (Filename.concat dir "journal.wal") in
  check bool "no records" true (records = [] && tail = Journal.Complete)

let test_journal_empty_file () =
  let dir = temp_dir () in
  let path = Filename.concat dir "journal.wal" in
  write_file path "";
  let records, tail = Journal.read path in
  check bool "no records" true (records = [] && tail = Journal.Complete)

let test_journal_header_only () =
  let dir = temp_dir () in
  let path = write_journal dir [] in
  let records, tail = Journal.read path in
  check bool "no records" true (records = [] && tail = Journal.Complete)

let test_journal_short_header () =
  let dir = temp_dir () in
  let path = Filename.concat dir "journal.wal" in
  write_file path "XTR";
  match Journal.read path with
  | records, Journal.Torn { offset; _ } ->
    check bool "nothing decoded" true (records = []);
    check int "torn at origin" 0 offset
  | _, Journal.Complete -> Alcotest.fail "short header read as complete"

let test_journal_bad_magic () =
  let dir = temp_dir () in
  let path = Filename.concat dir "journal.wal" in
  write_file path "NOTAWALX-and-then-some-bytes";
  check bool "corrupt" true
    (match Journal.read path with
    | _ -> false
    | exception Codec.Corrupt _ -> true)

(* Cut the journal at every possible byte length: the reader must always
   return a clean prefix of the records, flagging anything else as a torn
   tail that {!Journal.truncate} repairs. *)
let test_journal_torn_tail_sweep () =
  let dir = temp_dir () in
  let path = write_journal dir sample_records in
  let full = read_file path in
  let total = List.length sample_records in
  for cut = 0 to String.length full - 1 do
    let cut_path = Filename.concat dir (Printf.sprintf "cut-%d.wal" cut) in
    write_file cut_path (String.sub full 0 cut);
    let records, tail = Journal.read cut_path in
    let n = List.length records in
    check bool (Printf.sprintf "cut %d: prefix" cut) true (n <= total);
    check bool (Printf.sprintf "cut %d: records intact" cut) true
      (List.for_all2 record_eq (List.filteri (fun i _ -> i < n) sample_records) records);
    match tail with
    | Journal.Complete -> check bool (Printf.sprintf "cut %d: boundary" cut) true (n < total || cut = String.length full)
    | Journal.Torn { offset; _ } ->
      check bool (Printf.sprintf "cut %d: torn offset sane" cut) true (offset <= cut);
      Journal.truncate cut_path offset;
      let records', tail' = Journal.read cut_path in
      check bool (Printf.sprintf "cut %d: repaired" cut) true (tail' = Journal.Complete);
      check int (Printf.sprintf "cut %d: repair keeps records" cut) n (List.length records')
  done

let test_journal_one_extra_byte () =
  let dir = temp_dir () in
  let path = write_journal dir sample_records in
  let full = read_file path in
  write_file path (full ^ "\x2a");
  match Journal.read path with
  | records, Journal.Torn { offset; _ } ->
    check int "all records" (List.length sample_records) (List.length records);
    check int "torn exactly at old end" (String.length full) offset;
    Journal.truncate path offset;
    let _, tail = Journal.read path in
    check bool "repaired" true (tail = Journal.Complete)
  | _, Journal.Complete -> Alcotest.fail "extra byte read as complete"

let test_journal_midfile_corruption_fatal () =
  let dir = temp_dir () in
  let path = write_journal dir sample_records in
  (* flip a byte well inside the first record's payload: damage before
     the tail must never be silently dropped *)
  flip_byte path 30;
  check bool "corrupt" true
    (match Journal.read path with
    | _ -> false
    | exception Codec.Corrupt _ -> true)

let test_journal_reset () =
  let dir = temp_dir () in
  let path = write_journal dir sample_records in
  Journal.reset path [ Journal.Checkpoint 9 ];
  let records, tail = Journal.read path in
  check bool "complete" true (tail = Journal.Complete);
  check bool "only the checkpoint" true
    (match records with [ Journal.Checkpoint 9 ] -> true | _ -> false)

let test_journal_replay_helpers () =
  let records = sample_records in
  check bool "last checkpoint" true (Journal.last_checkpoint records = Some 3);
  let suffix = Journal.records_after_checkpoint records in
  check int "suffix size" 1 (List.length suffix);
  check bool "suffix content" true
    (match suffix with [ Journal.Add_doc { name = "c.xml"; _ } ] -> true | _ -> false);
  check bool "no checkpoint" true (Journal.last_checkpoint [] = None);
  check int "no checkpoint suffix" 2
    (List.length
       (Journal.records_after_checkpoint
          [ Journal.Remove_doc "x"; Journal.Remove_doc "y" ]))

(* ------------------------------------------------------------------ *)
(* Envelope damage edge cases *)

let test_envelope_zero_length_file () =
  let path = Filename.temp_file "extract_live" ".arena" in
  write_file path "";
  check bool "truncated" true
    (match Persist.load path with
    | _ -> false
    | exception Codec.Truncated _ -> true)

let test_envelope_magic_only () =
  let path = Filename.temp_file "extract_live" ".arena" in
  let w = Codec.writer () in
  Codec.write_string w Persist.magic;
  write_file path (Codec.contents w);
  check bool "truncated" true
    (match Persist.load path with
    | _ -> false
    | exception Codec.Truncated _ -> true)

let test_envelope_fingerprint_mismatch_with_valid_seals () =
  (* both artifacts seal correctly; only the cross-file fingerprint
     disagrees — the last line of defence against mixed-up pairs *)
  let doc1 = Document.load_string doc_a in
  let doc2 = Document.load_string doc_b in
  let encoded = Persist.encode_index (Inverted_index.build doc1) in
  check bool "own doc accepted" true
    (match Persist.decode_index ~doc:doc1 encoded with _ -> true);
  check bool "foreign doc rejected" true
    (match Persist.decode_index ~doc:doc2 encoded with
    | _ -> false
    | exception Codec.Corrupt reason ->
      (* the message should blame the pairing, not the bytes *)
      let has s sub =
        let ls = String.length s and lb = String.length sub in
        let rec loop i = i + lb <= ls && (String.sub s i lb = sub || loop (i + 1)) in
        loop 0
      in
      has reason "fingerprint")

(* ------------------------------------------------------------------ *)
(* Crash fault specs *)

let with_faults spec f =
  match Faults.configure spec with
  | Error e -> Alcotest.failf "bad fault spec %S: %s" spec e
  | Ok () -> Fun.protect ~finally:Faults.clear f

let test_crash_spec_parses () =
  with_faults "x.y:crash" (fun () ->
      check bool "configured" true
        (List.exists (fun (p, _) -> String.equal p "x.y") (Faults.configured ())));
  with_faults "x.y:crash=3" (fun () -> check bool "armed" true (Faults.active ()));
  check bool "crash=0 rejected" true
    (match Faults.configure "x.y:crash=0" with Error _ -> true | Ok () -> false);
  check bool "junk rejected" true
    (match Faults.configure "x.y:boom" with Error _ -> true | Ok () -> false);
  Faults.clear ()

(* ------------------------------------------------------------------ *)
(* Live store *)

let sources lc q =
  Live_corpus.run lc q
  |> List.map (fun (h : Live_corpus.hit) -> h.Live_corpus.source)
  |> List.sort_uniq String.compare

let test_live_fresh_store_is_empty () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  check int "generation 0" 0 (Live_corpus.generation lc);
  check string_list "no members" [] (Live_corpus.names lc);
  check string_list "no hits" [] (sources lc "storm");
  Live_corpus.close lc

let test_live_add_and_query () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  Live_corpus.add lc ~name:"b.xml" ~xml:doc_b;
  check string_list "members" [ "a.xml"; "b.xml" ] (Live_corpus.names lc);
  check string_list "storm in both" [ "a.xml"; "b.xml" ] (sources lc "storm");
  check string_list "rivers only in a" [ "a.xml" ] (sources lc "rivers");
  let hits = Live_corpus.run lc "storm" in
  check bool "snippets attached" true
    (List.for_all
       (fun (h : Live_corpus.hit) -> not h.result.Pipeline.degraded)
       hits);
  Live_corpus.close lc

let test_live_reopen_replays_journal () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  Live_corpus.add lc ~name:"b.xml" ~xml:doc_b;
  Live_corpus.close lc;
  let lc = Live_corpus.open_dir dir in
  check string_list "members recovered" [ "a.xml"; "b.xml" ] (Live_corpus.names lc);
  check string_list "content recovered" [ "a.xml" ] (sources lc "rivers");
  Live_corpus.close lc

let test_live_replace_shadows () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_b;
  check string_list "one member" [ "a.xml" ] (Live_corpus.names lc);
  check string_list "old content gone" [] (sources lc "rivers");
  check string_list "new content" [ "a.xml" ] (sources lc "sunshine");
  Live_corpus.close lc;
  let lc = Live_corpus.open_dir dir in
  check string_list "replacement survives reopen" [] (sources lc "rivers");
  check string_list "new content survives" [ "a.xml" ] (sources lc "sunshine");
  Live_corpus.close lc

let test_live_remove () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  Live_corpus.add lc ~name:"b.xml" ~xml:doc_b;
  check bool "removed" true (Live_corpus.remove lc "a.xml");
  check bool "absent now" false (Live_corpus.remove lc "a.xml");
  check string_list "member gone" [ "b.xml" ] (Live_corpus.names lc);
  check string_list "content gone" [] (sources lc "rivers");
  Live_corpus.close lc;
  let lc = Live_corpus.open_dir dir in
  check string_list "removal survives reopen" [ "b.xml" ] (Live_corpus.names lc);
  Live_corpus.close lc

let test_live_compact_preserves_content () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  Live_corpus.add lc ~name:"b.xml" ~xml:doc_b;
  Live_corpus.add lc ~name:"c.xml" ~xml:doc_c;
  ignore (Live_corpus.remove lc "b.xml");
  let before = sources lc "rivers" in
  let gen = Live_corpus.compact lc in
  check int "generation 1" 1 gen;
  check string_list "same hits after compaction" before (sources lc "rivers");
  check string_list "members" [ "a.xml"; "c.xml" ] (Live_corpus.names lc);
  (* the journal is now a single checkpoint and older generations are gone *)
  let records, tail = Journal.read (Live.journal_path dir) in
  check bool "journal reset" true
    (tail = Journal.Complete
    && match records with [ Journal.Checkpoint 1 ] -> true | _ -> false);
  check bool "one generation on disk" true (Live.generations dir = [ 1 ]);
  Live_corpus.close lc;
  let lc = Live_corpus.open_dir dir in
  check int "reopens at generation 1" 1 (Live_corpus.generation lc);
  check string_list "content after reopen" before (sources lc "rivers");
  Live_corpus.close lc

let test_live_tombstone_hides_base_member () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  Live_corpus.add lc ~name:"c.xml" ~xml:doc_c;
  ignore (Live_corpus.compact lc);
  (* both members are base members now; removing one exercises the mask *)
  check bool "removed from base" true (Live_corpus.remove lc "a.xml");
  check string_list "masked out" [ "c.xml" ] (sources lc "rivers");
  Live_corpus.close lc;
  let lc = Live_corpus.open_dir dir in
  check string_list "mask survives reopen" [ "c.xml" ] (sources lc "rivers");
  Live_corpus.close lc

let test_live_updates_after_compaction () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  ignore (Live_corpus.compact lc);
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_b;
  check string_list "base member shadowed by delta" [] (sources lc "rivers");
  check string_list "delta content" [ "a.xml" ] (sources lc "sunshine");
  ignore (Live_corpus.compact lc);
  check int "generation 2" 2 (Live_corpus.generation lc);
  check string_list "still shadowed" [] (sources lc "rivers");
  Live_corpus.close lc

let test_live_apply_crash_window_recovers_post_state () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  (* the fault fires after the journal fsync, before the in-memory apply:
     the in-process equivalent of dying between those two steps *)
  with_faults "live.apply:once" (fun () ->
      check bool "injected" true
        (match Live_corpus.add lc ~name:"b.xml" ~xml:doc_b with
        | () -> false
        | exception Faults.Injected _ -> true));
  check string_list "memory never saw the add" [ "a.xml" ] (Live_corpus.names lc);
  Live_corpus.close lc;
  let lc = Live_corpus.open_dir dir in
  check string_list "journal had it: post-state" [ "a.xml"; "b.xml" ]
    (Live_corpus.names lc);
  Live_corpus.close lc

let test_live_snapshot_write_crash_window_keeps_pre_state () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  with_faults "snapshot.write:once" (fun () ->
      check bool "injected" true
        (match Live_corpus.compact lc with
        | _ -> false
        | exception Faults.Injected _ -> true));
  Live_corpus.close lc;
  let lc = Live_corpus.open_dir dir in
  check int "still generation 0" 0 (Live_corpus.generation lc);
  check string_list "content intact" [ "a.xml" ] (Live_corpus.names lc);
  Live_corpus.close lc

let test_live_rename_crash_window_prunes_stray_tmp () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  with_faults "snapshot.rename:once" (fun () ->
      check bool "injected" true
        (match Live_corpus.compact lc with
        | _ -> false
        | exception Faults.Injected _ -> true));
  Live_corpus.close lc;
  check bool "tmp survivor present" true
    (Sys.file_exists (Live.snapshot_path dir 1 ^ ".tmp"));
  let warnings = ref [] in
  let lc = Live_corpus.open_dir ~on_warning:(fun w -> warnings := w :: !warnings) dir in
  check int "pre-state" 0 (Live_corpus.generation lc);
  check string_list "content intact" [ "a.xml" ] (Live_corpus.names lc);
  check bool "stray removed" false (Sys.file_exists (Live.snapshot_path dir 1 ^ ".tmp"));
  check bool "stray reported" true
    (List.exists (fun w -> String.length w > 0) !warnings);
  Live_corpus.close lc

let test_live_reset_crash_window_heals_stale_journal () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  Live_corpus.add lc ~name:"b.xml" ~xml:doc_b;
  (* journal.reset fires after the new snapshot generation is sealed but
     before the journal is rewritten: the directory holds gen 1 plus a
     journal whose records are already inside it *)
  with_faults "journal.reset:once" (fun () ->
      check bool "injected" true
        (match Live_corpus.compact lc with
        | _ -> false
        | exception Faults.Injected _ -> true));
  Live_corpus.close lc;
  let warnings = ref [] in
  let lc = Live_corpus.open_dir ~on_warning:(fun w -> warnings := w :: !warnings) dir in
  check int "post-state generation" 1 (Live_corpus.generation lc);
  check string_list "post-state content" [ "a.xml"; "b.xml" ] (Live_corpus.names lc);
  check bool "stale journal reported" true (!warnings <> []);
  (* the self-heal rewrote the journal to a bare checkpoint *)
  let records, _ = Journal.read (Live.journal_path dir) in
  check bool "journal healed" true
    (match records with [ Journal.Checkpoint 1 ] -> true | _ -> false);
  Live_corpus.close lc

let test_live_generation_fallback () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  ignore (Live_corpus.compact lc);
  Live_corpus.close lc;
  (* a later generation that never finished decoding: recovery must warn
     and fall back to generation 1 *)
  write_file (Live.snapshot_path dir 2) "garbage, not an envelope";
  let warnings = ref [] in
  let lc = Live_corpus.open_dir ~on_warning:(fun w -> warnings := w :: !warnings) dir in
  check int "fell back" 1 (Live_corpus.generation lc);
  check string_list "content intact" [ "a.xml" ] (Live_corpus.names lc);
  check bool "fallback reported" true (!warnings <> []);
  Live_corpus.close lc

let test_live_all_snapshots_corrupt_is_fatal () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  ignore (Live_corpus.compact lc);
  Live_corpus.close lc;
  flip_byte (Live.snapshot_path dir 1) 40;
  check bool "corrupt" true
    (match Live_corpus.open_dir ~on_warning:(fun _ -> ()) dir with
    | _ -> false
    | exception Codec.Corrupt _ -> true)

let test_live_rejects_bad_input () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  check bool "unparsable XML rejected" true
    (match Live_corpus.add lc ~name:"bad.xml" ~xml:"<oops" with
    | () -> false
    | exception Extract_xml.Error.Parse_error _ -> true);
  check bool "bad name rejected" true
    (match Live_corpus.add lc ~name:"" ~xml:doc_a with
    | () -> false
    | exception Invalid_argument _ -> true);
  check string_list "nothing got in" [] (Live_corpus.names lc);
  Live_corpus.close lc

let test_live_read_only_store_rejects_updates () =
  let dir = temp_dir () in
  let lc = Live_corpus.open_dir dir in
  Live_corpus.add lc ~name:"a.xml" ~xml:doc_a;
  Live_corpus.close lc;
  let lc = Live_corpus.open_dir ~read_only:true dir in
  check string_list "readable" [ "a.xml" ] (Live_corpus.names lc);
  check bool "add rejected" true
    (match Live_corpus.add lc ~name:"b.xml" ~xml:doc_b with
    | () -> false
    | exception Invalid_argument _ -> true);
  Live_corpus.close lc

(* ------------------------------------------------------------------ *)
(* Visibility mask *)

let test_mask_filters_postings () =
  let doc =
    Document.load_string "<corpus><a><t>storm</t></a><b><t>storm rivers</t></b></corpus>"
  in
  let index = Inverted_index.build doc in
  let kinds =
    Extract_store.Node_kind.classify (Extract_store.Dataguide.build doc)
  in
  let member_roots = Document.children doc 0 in
  let intervals =
    List.map (fun r -> r, Document.subtree_last doc r) member_roots
  in
  let run mask = Engine.run ~mask index kinds (Query.of_string "storm") in
  let all = Engine.run index kinds (Query.of_string "storm") in
  check bool "unmasked finds both" true (List.length all >= 2);
  (match intervals with
  | [ a_iv; b_iv ] ->
    let only_a = run [| a_iv |] in
    check bool "mask to a: results inside a" true
      (only_a <> []
      && List.for_all
           (fun r ->
             let root = Result_tree.root r in
             fst a_iv <= root && root <= snd a_iv)
           only_a);
    let only_b = run [| b_iv |] in
    check bool "mask to b: results inside b" true
      (only_b <> []
      && List.for_all
           (fun r ->
             let root = Result_tree.root r in
             fst b_iv <= root && root <= snd b_iv)
           only_b)
  | _ -> Alcotest.fail "expected two member subtrees");
  check bool "empty mask hides everything" true (run [||] = [])

let suites =
  [
    ( "live.journal",
      [
        Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
        Alcotest.test_case "append reopens" `Quick test_journal_append_reopens;
        Alcotest.test_case "missing file" `Quick test_journal_missing_file;
        Alcotest.test_case "empty file" `Quick test_journal_empty_file;
        Alcotest.test_case "header only" `Quick test_journal_header_only;
        Alcotest.test_case "short header" `Quick test_journal_short_header;
        Alcotest.test_case "bad magic" `Quick test_journal_bad_magic;
        Alcotest.test_case "torn tail sweep" `Quick test_journal_torn_tail_sweep;
        Alcotest.test_case "one extra byte" `Quick test_journal_one_extra_byte;
        Alcotest.test_case "mid-file corruption fatal" `Quick
          test_journal_midfile_corruption_fatal;
        Alcotest.test_case "reset" `Quick test_journal_reset;
        Alcotest.test_case "replay helpers" `Quick test_journal_replay_helpers;
      ] );
    ( "live.envelope",
      [
        Alcotest.test_case "zero-length file" `Quick test_envelope_zero_length_file;
        Alcotest.test_case "magic only" `Quick test_envelope_magic_only;
        Alcotest.test_case "fingerprint mismatch, valid seals" `Quick
          test_envelope_fingerprint_mismatch_with_valid_seals;
        Alcotest.test_case "crash spec parses" `Quick test_crash_spec_parses;
      ] );
    ( "live.store",
      [
        Alcotest.test_case "fresh store is empty" `Quick test_live_fresh_store_is_empty;
        Alcotest.test_case "add and query" `Quick test_live_add_and_query;
        Alcotest.test_case "reopen replays journal" `Quick test_live_reopen_replays_journal;
        Alcotest.test_case "replace shadows" `Quick test_live_replace_shadows;
        Alcotest.test_case "remove" `Quick test_live_remove;
        Alcotest.test_case "compact preserves content" `Quick
          test_live_compact_preserves_content;
        Alcotest.test_case "tombstone hides base member" `Quick
          test_live_tombstone_hides_base_member;
        Alcotest.test_case "updates after compaction" `Quick
          test_live_updates_after_compaction;
        Alcotest.test_case "apply crash window: post-state" `Quick
          test_live_apply_crash_window_recovers_post_state;
        Alcotest.test_case "snapshot-write crash window: pre-state" `Quick
          test_live_snapshot_write_crash_window_keeps_pre_state;
        Alcotest.test_case "rename crash window prunes stray tmp" `Quick
          test_live_rename_crash_window_prunes_stray_tmp;
        Alcotest.test_case "reset crash window heals stale journal" `Quick
          test_live_reset_crash_window_heals_stale_journal;
        Alcotest.test_case "generation fallback" `Quick test_live_generation_fallback;
        Alcotest.test_case "all snapshots corrupt is fatal" `Quick
          test_live_all_snapshots_corrupt_is_fatal;
        Alcotest.test_case "rejects bad input" `Quick test_live_rejects_bad_input;
        Alcotest.test_case "read-only rejects updates" `Quick
          test_live_read_only_store_rejects_updates;
      ] );
    ( "live.mask",
      [ Alcotest.test_case "filters postings" `Quick test_mask_filters_postings ] );
  ]
