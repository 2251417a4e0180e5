(* The one segment query behind Corpus, Live_corpus and Shard_set.

   Differential properties, per configuration (a two-database corpus, a
   live store after random add/remove/compact sequences, shard sets of
   1..4 shards), over workload-generated queries and random limits:
   (a) [run ~limit:k] is the first k hits of [run];
   (b) [run] equals the reference below — snippet every result of every
       segment, score, stable-sort by (score desc, source), truncate —
       the merge the three modules each ran before the segment query.

   Plus the work bound (phase 2 builds at most [limit] snippets) and the
   trace shape of a shard query. *)

module Document = Extract_store.Document
module Live = Extract_store.Live
module Engine = Extract_search.Engine
module Query = Extract_search.Query
module Ranker = Extract_search.Ranker
module Result_tree = Extract_search.Result_tree
module Workload = Extract_datagen.Workload
module Retail = Extract_datagen.Retail
module Trace = Extract_obs.Trace
module Reqid = Extract_obs.Reqid
open Extract_snippet

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let take limit l =
  match limit with None -> l | Some k -> List.filteri (fun i _ -> i < k) l

let retail_xml ~seed ~retailers =
  Extract_xml.Printer.document_to_string ~indent:None
    (Retail.generate
       {
         Retail.default with
         Retail.seed;
         retailers;
         stores_per_retailer = 3;
         clothes_per_store = 4;
         with_dtd = false;
       })

let queries_of dbs =
  List.concat_map
    (fun db ->
      Workload.generate { Workload.default with Workload.queries = 12 } (Pipeline.kinds db))
    dbs
  @ [ "store"; "retailer"; "apparel retailer"; "nosuchword" ]

(* ------------------------------------------------------------------ *)
(* The reference: today's algorithm over a segment list *)

let reference ?limit ~bound (segments : Corpus.segment list) q =
  let query = Query.of_string q in
  List.concat
    (List.mapi
       (fun i (s : Corpus.segment) ->
         let ranker = Ranker.make (Pipeline.index s.Corpus.db) in
         Pipeline.run ~bound ?mask:s.Corpus.mask s.Corpus.db q
         |> List.filter_map (fun (r : Pipeline.snippet_result) ->
                Option.map
                  (fun source ->
                    {
                      Corpus.source;
                      segment = i;
                      score = Ranker.score ranker query r.Pipeline.result;
                      global_root = s.Corpus.to_global (Result_tree.root r.Pipeline.result);
                      result = r;
                    })
                  (s.Corpus.source r.Pipeline.result)))
       segments)
  |> List.stable_sort (fun (a : Corpus.hit) b ->
         match Float.compare b.Corpus.score a.Corpus.score with
         | 0 -> String.compare a.Corpus.source b.Corpus.source
         | c -> c)
  |> take limit

let hit_key (h : Corpus.hit) =
  let r = h.Corpus.result in
  ( h.Corpus.source,
    h.Corpus.segment,
    h.Corpus.score,
    h.Corpus.global_root,
    Result_tree.root r.Pipeline.result,
    Snippet_tree.nodes r.Pipeline.selection.Selector.snippet,
    r.Pipeline.degraded )

let keys = List.map hit_key

(* Both properties for one configuration: [run ?limit q] is the module
   under test, [segments ()] the reference's view of its databases. *)
let agrees ~run ~segments ~limit q =
  let bound = 6 in
  let all = run ~bound ?limit:None q in
  let top = run ~bound ?limit:(Some limit) q in
  keys top = keys (take (Some limit) all)
  && keys all = keys (reference ~bound (segments ()) q)

(* ------------------------------------------------------------------ *)
(* Configurations *)

let corpus =
  lazy
    (Corpus.of_list
       [
         "retail", Pipeline.of_xml_string (retail_xml ~seed:7 ~retailers:3);
         "movies", Pipeline.build (Document.of_document (Extract_datagen.Movies.sized 12));
       ])

let corpus_segments c () =
  List.map
    (fun name ->
      {
        Corpus.db = Option.get (Corpus.find c name);
        mask = None;
        source = (fun _ -> Some name);
        to_global = Fun.id;
      })
    (Corpus.names c)

let shard_doc = lazy (Document.load_string (retail_xml ~seed:11 ~retailers:4))

let shard_sets = lazy (Array.init 4 (fun k -> Shard_set.split ~shards:(k + 1) (Lazy.force shard_doc)))

let shard_segments t () =
  let k = Shard_set.shard_count t in
  List.init k (fun i ->
      let label = Printf.sprintf "shard-%0*d" (String.length (string_of_int (k - 1))) i in
      {
        Corpus.db = Shard_set.shard_db t i;
        mask = None;
        source = (fun r -> if Result_tree.root r = 0 then None else Some label);
        to_global = Shard_set.to_global t ~shard:i;
      })

(* The live store's segments rebuilt from its current view, the way the
   query side wraps them: masked base (results labelled by member, the
   synthetic root dropped), then each delta. *)
let live_segments lc () =
  let view = Live.view (Live_corpus.store lc) in
  let members =
    List.filter
      (fun (name, _) -> not (List.mem name view.Live.tombstones))
      view.Live.members
  in
  let member_of r =
    let root = Result_tree.root r in
    List.find_map
      (fun (name, m) ->
        if m <= root && root <= Document.subtree_last view.Live.doc m then Some name else None)
      members
  in
  let mask = Live.mask view in
  (if Array.length mask = 0 then []
   else
     [
       {
         Corpus.db = Pipeline.of_parts view.Live.doc view.Live.index;
         mask = Some mask;
         source = member_of;
         to_global = Fun.id;
       };
     ])
  @ List.map
      (fun (name, (d : Live.delta)) ->
        {
          Corpus.db = Pipeline.of_parts d.Live.delta_doc d.Live.delta_index;
          mask = None;
          source = (fun _ -> Some name);
          to_global = Fun.id;
        })
      view.Live.deltas

let temp_dir () =
  let dir = Filename.temp_file "extract_segments" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

type op = Add of int * int | Remove of int | Compact

let live_names = [| "m0.xml"; "m1.xml"; "m2.xml" |]

let apply lc = function
  | Add (name, seed) ->
    Live_corpus.add lc ~name:live_names.(name) ~xml:(retail_xml ~seed ~retailers:1)
  | Remove name -> ignore (Live_corpus.remove lc live_names.(name))
  | Compact -> ignore (Live_corpus.compact lc)

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_limit = QCheck.Gen.int_range 1 8

let pick queries i = List.nth queries (i mod List.length queries)

let prop_corpus =
  let queries = lazy (queries_of (List.filter_map (Corpus.find (Lazy.force corpus)) [ "retail"; "movies" ])) in
  QCheck.Test.make ~count:25 ~name:"corpus: limit is a prefix, run = reference"
    QCheck.(make Gen.(pair nat gen_limit))
    (fun (qi, limit) ->
      let c = Lazy.force corpus in
      agrees
        ~run:(fun ~bound ?limit q -> Corpus.run ~bound ?limit c q)
        ~segments:(corpus_segments c) ~limit
        (pick (Lazy.force queries) qi))

let prop_shards =
  let queries = lazy (queries_of [ Pipeline.build (Lazy.force shard_doc) ]) in
  QCheck.Test.make ~count:25 ~name:"shards k=1..4: limit is a prefix, run = reference"
    QCheck.(make Gen.(triple (int_range 0 3) nat gen_limit))
    (fun (k, qi, limit) ->
      let t = (Lazy.force shard_sets).(k) in
      agrees
        ~run:(fun ~bound ?limit q -> Shard_set.run ~bound ?limit t q)
        ~segments:(shard_segments t) ~limit
        (pick (Lazy.force queries) qi))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        4, map2 (fun n s -> Add (n, s)) (int_range 0 2) (int_range 1 50);
        2, map (fun n -> Remove n) (int_range 0 2);
        1, return Compact;
      ])

let prop_live =
  let queries = lazy (queries_of [ Pipeline.of_xml_string (retail_xml ~seed:1 ~retailers:1) ]) in
  QCheck.Test.make ~count:12 ~name:"live after add/remove/compact: limit is a prefix, run = reference"
    QCheck.(make Gen.(triple (list_size (int_range 1 6) gen_op) nat gen_limit))
    (fun (ops, qi, limit) ->
      let lc = Live_corpus.open_dir (temp_dir ()) in
      Fun.protect
        ~finally:(fun () -> Live_corpus.close lc)
        (fun () ->
          List.iter (apply lc) ops;
          List.for_all
            (fun q ->
              agrees
                ~run:(fun ~bound ?limit q -> Live_corpus.run ~bound ?limit lc q)
                ~segments:(live_segments lc) ~limit q)
            [ pick (Lazy.force queries) qi; "store"; "retailer" ]))

(* ------------------------------------------------------------------ *)
(* Work bound: phase 2 builds at most [limit] snippets per query *)

let snippets_built f =
  let built = Atomic.make 0 in
  Pipeline.set_observer
    (Some
       {
         Pipeline.on_built = ignore;
         on_results = (fun _ _ -> ());
         on_snippets = (fun _ snips -> ignore (Atomic.fetch_and_add built (List.length snips)));
       });
  Fun.protect
    ~finally:(fun () -> Pipeline.set_observer None)
    (fun () ->
      let hits = f () in
      List.length hits, Atomic.get built)

let check_work_bound name run =
  List.iter
    (fun limit ->
      List.iter
        (fun q ->
          let hits, built = snippets_built (fun () -> run ~limit q) in
          let label = Printf.sprintf "%s %S limit %d" name q limit in
          check bool (label ^ ": built <= limit") true (built <= limit);
          check int (label ^ ": one snippet per hit") hits built)
        [ "store"; "retailer"; "apparel retailer"; "clothes casual" ])
    [ 1; 3; 10 ]

let test_work_bound_corpus () =
  let c = Lazy.force corpus in
  check_work_bound "corpus" (fun ~limit q -> Corpus.run ~limit c q)

let test_work_bound_shards () =
  let t = (Lazy.force shard_sets).(3) in
  check_work_bound "shards" (fun ~limit q -> Shard_set.run ~limit t q)

let test_work_bound_live () =
  let lc = Live_corpus.open_dir (temp_dir ()) in
  Fun.protect
    ~finally:(fun () -> Live_corpus.close lc)
    (fun () ->
      List.iter (fun s -> apply lc (Add (s mod 3, s))) [ 1; 2; 3 ];
      ignore (Live_corpus.compact lc);
      apply lc (Add (0, 9));
      apply lc (Add (1, 10));
      check_work_bound "live" (fun ~limit q -> Live_corpus.run ~limit lc q))

(* ------------------------------------------------------------------ *)
(* Trace shape: one shard.run{shard=i} per shard under one request id,
   all on the caller's domain (a sharded query spawns none); the
   phase-2 spans carry no shard *)

let rec flatten (s : Trace.span) = s :: List.concat_map flatten s.Trace.children

let test_trace_one_span_per_shard () =
  let t = (Lazy.force shard_sets).(3) in
  check int "four shards" 4 (Shard_set.shard_count t);
  Trace.clear ();
  let hits =
    Reqid.with_id "q000077" (fun () ->
        Trace.with_recording (fun () ->
            Trace.with_span "query" (fun () ->
                Shard_set.run ~limit:3 t "apparel retailer")))
  in
  check bool "some hits" true (hits <> []);
  let spans = List.concat_map flatten (Trace.finished ()) in
  let sharded = List.filter (fun s -> List.mem_assoc "shard" s.Trace.args) spans in
  check int "exactly one span with a shard arg per shard" 4 (List.length sharded);
  check bool "each is a shard.run, one per shard index" true
    (List.sort compare
       (List.map (fun s -> s.Trace.name, List.assoc "shard" s.Trace.args) sharded)
    = List.init 4 (fun i -> "shard.run", string_of_int i));
  check bool "phase 2 snippets outside every shard.run" true
    (List.exists (fun s -> s.Trace.name = "pipeline.snippet") spans
    && List.for_all
         (fun s -> not (List.exists (fun c -> c.Trace.name = "pipeline.snippet") (flatten s)))
         sharded);
  check bool "one request id" true
    (List.for_all (fun s -> s.Trace.rid = Some "q000077") spans);
  let caller = (Domain.self () :> int) in
  List.iter
    (fun s ->
      check int (Printf.sprintf "%s runs on the caller's domain" s.Trace.name) caller s.Trace.dom)
    spans

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "segments.differential",
      List.map QCheck_alcotest.to_alcotest [ prop_corpus; prop_shards; prop_live ] );
    ( "segments.work",
      [
        case "corpus snippets at most limit" test_work_bound_corpus;
        case "shards snippet at most limit" test_work_bound_shards;
        case "live snippets at most limit" test_work_bound_live;
        case "one shard.run span per shard" test_trace_one_span_per_shard;
      ] );
  ]
