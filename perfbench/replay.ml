(* The traced run: replay a workload's request schedule in-process and
   rebuild every page from the public calls of each layer, each call
   wrapped in a span of the public [Extract_obs.Trace] API.

   Every read is served three ways, in order, on the same state:
   (a) [Demo_server.handle_request], the server core without sockets —
       its body is the reference, and its time is [server.handle_ms];
   (b) the layer calls with tracing off — the untraced replay time and
       the GC deltas;
   (c) the same calls with tracing on — the spans.
   (b) and (c) must reproduce (a)'s body byte for byte. The spans are
   exported with [Trace_export] as Chrome trace JSON, read back, and
   each layer metric is derived from the exported events. Writes of the
   live workload are applied once, between reads, with
   [Live_corpus.add] / [compact]. *)

module Pipeline = Extract_snippet.Pipeline
module Shard_set = Extract_snippet.Shard_set
module Live_corpus = Extract_snippet.Live_corpus
module Corpus = Extract_snippet.Corpus
module Html_view = Extract_snippet.Html_view
module Feature = Extract_snippet.Feature
module Ilist = Extract_snippet.Ilist
module Selector = Extract_snippet.Selector
module Return_entity = Extract_snippet.Return_entity
module Result_key = Extract_snippet.Result_key
module Eval_ctx = Extract_search.Eval_ctx
module Engine = Extract_search.Engine
module Ranker = Extract_search.Ranker
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index
module Live = Extract_store.Live
module Trace = Extract_obs.Trace
module Trace_export = Extract_obs.Trace_export
module Demo_server = Extract_server.Demo_server

type outcome = { attempted : int; failed : int }

let now = Unix.gettimeofday

let span = Trace.with_span

(* the spans that make up a request; anything else inside a request
   span is either grouping ("segment") or a library span nested inside
   one of these *)
let layers =
  [ "search.eval_ctx"; "search.engine"; "search.rank"; "snippet.feature"; "snippet.ilist";
    "snippet.select"; "segments.merge"; "snippet.render" ]

(* ------------------------------------------------------------------ *)
(* Rebuilding a page from the layer calls *)

(* what one request touched, for the counts and the standalone probes *)
type touched = {
  mutable probes : (Pipeline.t * Query.t * Result_tree.t) list;
  mutable results : int; (* engine results over all segments *)
  mutable generated : int; (* snippets built *)
  mutable returned : int; (* snippets on the page *)
  mutable segment_s : float list; (* time per segment *)
}

let fresh () = { probes = []; results = 0; generated = 0; returned = 0; segment_s = [] }

let snippet db ctx ~bound tc r =
  let kinds = Pipeline.kinds db in
  let analysis = span "snippet.feature" (fun () -> Feature.analyze kinds r) in
  let ilist =
    span "snippet.ilist" (fun () ->
        Ilist.build ~ctx ~analysis kinds (Pipeline.keys db) (Pipeline.index db) r
          (Eval_ctx.query ctx))
  in
  let selection = span "snippet.select" (fun () -> Selector.greedy ~bound r ilist) in
  tc.generated <- tc.generated + 1;
  { Pipeline.result = r; ilist; selection; degraded = false }

(* [f] as one segment of a request: its time feeds the fan-out and skew
   figures *)
let in_segment tc f =
  let t0 = now () in
  let x = span "segment" f in
  tc.segment_s <- (now () -. t0) :: tc.segment_s;
  x

let search ?mask ?limit db tc q =
  let ctx =
    span "search.eval_ctx" (fun () -> Eval_ctx.make ?mask (Pipeline.index db) (Query.of_string q))
  in
  let results = span "search.engine" (fun () -> Engine.run_ctx ?limit ctx (Pipeline.kinds db)) in
  tc.results <- tc.results + List.length results;
  tc.probes <- List.map (fun r -> db, Eval_ctx.query ctx, r) results @ tc.probes;
  ctx, results

let render ~title ~bound tc q snips =
  tc.returned <- List.length snips;
  span "snippet.render" (fun () -> Html_view.result_page ~title ~query:q ~bound snips)

let take k l = match k with None -> l | Some k -> List.filteri (fun i _ -> i < k) l

(* [Pipeline.run ~limit:25] + the page, as GET /search builds it *)
let search_page db ~bound tc q =
  let snips =
    in_segment tc (fun () ->
        let ctx, results = search ~limit:25 db tc q in
        List.map (snippet db ctx ~bound tc) results)
  in
  render ~title:"eXtract — retail" ~bound tc q snips

(* [Shard_set.run ~parallel:false] + the page, as GET /shards/search builds it *)
let shards_page s ?limit ~bound tc q =
  let per_shard =
    Array.init (Shard_set.shard_count s) (fun i ->
        let db = Shard_set.shard_db s i in
        in_segment tc (fun () ->
            let ctx, results = search db tc q in
            span "search.rank" (fun () ->
                Ranker.rank (Ranker.make (Pipeline.index db)) (Eval_ctx.query ctx) results)
            |> take limit
            |> List.map (fun (r, score) -> score, snippet db ctx ~bound tc r)
            |> List.filter (fun (_, sr) -> Result_tree.root sr.Pipeline.result <> 0)))
  in
  let merged = span "segments.merge" (fun () -> Engine.merge_scored ?limit per_shard) in
  render
    ~title:(Printf.sprintf "eXtract — sharded (%d shards)" (Shard_set.shard_count s))
    ~bound tc q
    (List.map (fun (_, (_, r)) -> r) merged)

(* Analyzed pipelines of a live view's segments, reused while their
   arena is unchanged — what Live_corpus's view refresh does. *)
let live_dbs = ref []

let live_db doc index =
  match List.assq_opt doc !live_dbs with
  | Some db -> db
  | None ->
    let db = Pipeline.of_parts doc index in
    live_dbs := (doc, db) :: (if List.length !live_dbs > 64 then [] else !live_dbs);
    db

(* [Live_corpus.run] + the page, as GET /live/search builds it *)
let live_page live ?limit ~bound tc q =
  let view = Live.view (Live_corpus.store live) in
  let base = live_db view.Live.doc view.Live.index in
  let deltas =
    List.map (fun (name, d) -> name, live_db d.Live.delta_doc d.Live.delta_index) view.Live.deltas
  in
  let members =
    List.filter
      (fun (name, _) -> not (List.exists (String.equal name) view.Live.tombstones))
      view.Live.members
  in
  let mask = Live.mask view in
  let query = Query.of_string q in
  let hits ?mask db source_of =
    in_segment tc (fun () ->
        let ctx, results = search ?mask db tc q in
        let snips = List.map (snippet db ctx ~bound tc) results in
        span "search.rank" (fun () ->
            let ranker = Ranker.make (Pipeline.index db) in
            List.filter_map
              (fun (s : Pipeline.snippet_result) ->
                Option.map
                  (fun source -> source, Ranker.score ranker query s.Pipeline.result, s)
                  (source_of s.Pipeline.result))
              snips))
  in
  let base_hits =
    if Array.length mask = 0 then []
    else
      hits ~mask base (fun r ->
          let root = Result_tree.root r in
          List.find_map
            (fun (name, m) ->
              if m <= root && root <= Document.subtree_last view.Live.doc m then Some name
              else None)
            members)
  in
  let delta_hits = List.concat_map (fun (name, db) -> hits db (fun _ -> Some name)) deltas in
  let sorted =
    span "segments.merge" (fun () ->
        List.stable_sort
          (fun (sa, a, _) (sb, b, _) ->
            if a <> b then Float.compare b a else String.compare sa sb)
          (base_hits @ delta_hits)
        |> take limit)
  in
  render
    ~title:(Printf.sprintf "eXtract — live (generation %d)" (Live_corpus.generation live))
    ~bound tc q
    (List.map (fun (_, _, s) -> s) sorted)

(* ------------------------------------------------------------------ *)
(* Chrome trace read-back: events per name, and self time *)

type event = { ename : string; ts : float; dur : float; tid : int }

let events_of_json j =
  Jread.list (Jread.get "traceEvents" j)
  |> List.filter_map (fun e ->
         match Jread.member "ph" e with
         | Some (Jread.Str "X") ->
           Some
             {
               ename = Jread.str (Jread.get "name" e);
               ts = Jread.num (Jread.get "ts" e);
               dur = Jread.num (Jread.get "dur" e);
               tid = int_of_float (Jread.num (Jread.get "tid" e));
             }
         | _ -> None)

(* Self time of every event: its duration minus its direct children's,
   nesting recovered from the intervals on each thread. Returns
   (event, self) pairs plus, per request event, the summed duration of
   the layer events inside it. *)
let self_times events =
  let sorted =
    List.stable_sort
      (fun a b ->
        if a.tid <> b.tid then compare a.tid b.tid
        else if a.ts <> b.ts then Float.compare a.ts b.ts
        else Float.compare b.dur a.dur)
      events
  in
  let selfs = Hashtbl.create 1024 in
  let stack = ref [] in
  List.iteri
    (fun i e ->
      let rec pop () =
        match !stack with
        | (_, p) :: rest when p.tid <> e.tid || e.ts >= p.ts +. p.dur -. 1e-3 ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      Hashtbl.replace selfs i (e, e.dur);
      (match !stack with
      | (pi, _) :: _ ->
        let pe, ps = Hashtbl.find selfs pi in
        Hashtbl.replace selfs pi (pe, ps -. e.dur)
      | [] -> ());
      stack := (i, e) :: !stack)
    sorted;
  Hashtbl.fold (fun _ v acc -> v :: acc) selfs []

(* ------------------------------------------------------------------ *)

let median_time reps f =
  Stats.median
    (Array.init reps (fun _ ->
         let t0 = now () in
         ignore (Sys.opaque_identity (f ()));
         now () -. t0))

let run (r : Spec.record) (inputs : Spec.inputs) ~(kinds : Spec.kind array) ~budget ~report =
  let report ?n name u v : unit = report ?n name u v in
  (* set-up layers, on this workload's corpus XML *)
  let docs () = List.map Document.load_string inputs.Spec.corpus_xml in
  report ~n:3 "xml.parse_s" "s" (median_time 3 docs);
  let parsed = docs () in
  report ~n:3 "store.index_build_s" "s"
    (median_time 3 (fun () -> List.map Inverted_index.build parsed));
  let indexed = List.map (fun d -> d, Inverted_index.build d) parsed in
  report ~n:3 "store.analyze_s" "s"
    (median_time 3 (fun () -> List.map (fun (d, i) -> Pipeline.of_parts d i) indexed));
  (* the in-process server, in the state the served window started from *)
  let shards = Option.map Shard_set.load_dir inputs.Spec.shard_dir in
  (match inputs.Spec.shard_dir with
  | Some dir -> report ~n:3 "store.snapshot_map_s" "s" (median_time 3 (fun () -> Shard_set.load_dir dir))
  | None -> ());
  let store = Spec.fresh_store inputs in
  let live = Option.map (fun dir -> Live_corpus.open_dir dir) store in
  let server =
    match r.Spec.route, inputs.Spec.db, shards, live with
    | Spec.Search, Some db, _, _ -> Demo_server.create (Corpus.add Corpus.empty ~name:"retail" db)
    | Spec.Shards, _, Some s, _ -> Demo_server.create ~sharded:s Corpus.empty
    | Spec.Live, _, _, Some lv -> Demo_server.create ~live:lv Corpus.empty
    | _ -> failwith "replay: workload inputs do not match its route"
  in
  let path t = Spec.target_path r t in
  if r.Spec.zipf > 0. then
    Array.iter (fun t -> ignore (Demo_server.handle server (path t))) inputs.Spec.targets
  else
    Array.iter
      (fun t -> ignore (Demo_server.handle server (path t)))
      (Array.sub inputs.Spec.targets 0 (min 8 (Array.length inputs.Spec.targets)));
  let build tc (t : Spec.target) =
    let q = t.Spec.query and bound = t.Spec.bound in
    match r.Spec.route, inputs.Spec.db, shards, live with
    | Spec.Search, Some db, _, _ -> search_page db ~bound tc q
    | Spec.Shards, _, Some s, _ -> shards_page s ?limit:r.Spec.limit ~bound tc q
    | Spec.Live, _, _, Some lv -> live_page lv ?limit:r.Spec.limit ~bound tc q
    | _ -> assert false
  in
  (* the library call each workload's route makes, for the fan-out overhead *)
  let library_call (t : Spec.target) =
    match shards, live with
    | Some s, _ -> ignore (Shard_set.run ~bound:t.Spec.bound ?limit:r.Spec.limit s t.Spec.query)
    | _, Some lv -> ignore (Live_corpus.run ~bound:t.Spec.bound ?limit:r.Spec.limit lv t.Spec.query)
    | None, None -> ()
  in
  Trace.set_buffer_capacity 1_000_000;
  ignore (Trace.finished ());
  let t_start = now () in
  let reads = ref 0 and attempted = ref 0 and failed = ref 0 in
  let handle_s = ref [] and untraced_s = ref [] and traced_s = ref [] in
  let minor = ref 0. and major = ref 0 in
  let results = ref 0 and generated = ref 0 and returned = ref 0 in
  let lookups = ref 0 and lookup_s = ref 0. and postings = ref 0 in
  let re_s = ref 0. and rk_s = ref 0. and probes = ref 0 in
  let fanout = ref [] and skew = ref [] in
  let add_ms = ref [] and compact_ms = ref [] in
  let i = ref 0 in
  while !i < Array.length kinds && (now () -. t_start < budget || !reads < 1) do
    (match kinds.(!i), live with
    | Spec.Write j, Some lv -> (
      incr attempted;
      let t0 = now () in
      match Spec.write_request j with
      | `Add (name, xml) ->
        Live_corpus.add lv ~name ~xml;
        add_ms := ((now () -. t0) *. 1000.) :: !add_ms
      | `Compact ->
        ignore (Live_corpus.compact lv);
        compact_ms := ((now () -. t0) *. 1000.) :: !compact_ms)
    | Spec.Write _, None -> ()
    | Spec.Read t, _ ->
      incr reads;
      incr attempted;
      (* (a) the server core *)
      let t0 = now () in
      let resp = Demo_server.handle server (path t) in
      handle_s := (now () -. t0) :: !handle_s;
      (* refresh the live segment pipelines outside the timed calls *)
      (match live with Some _ -> ignore (build (fresh ()) t) | None -> ());
      (* (b) untraced layer calls *)
      let tc = fresh () in
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      let page_b = build tc t in
      let dt = now () -. t0 in
      let g1 = Gc.quick_stat () in
      untraced_s := dt :: !untraced_s;
      minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
      major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
      (* (c) traced layer calls *)
      Trace.set_enabled true;
      let t0 = now () in
      let page_c = span "replay.request" (fun () -> build (fresh ()) t) in
      traced_s := (now () -. t0) :: !traced_s;
      Trace.set_enabled false;
      if resp.Demo_server.status <> 200
         || not (String.equal page_b resp.Demo_server.body && String.equal page_c resp.Demo_server.body)
      then begin
        incr failed;
        Printf.printf "replay: page differs from the served body for %s\n%!" (path t)
      end;
      results := !results + tc.results;
      generated := !generated + tc.generated;
      returned := !returned + tc.returned;
      (* segments: the route's own library call against its slowest segment *)
      (match tc.segment_s with
      | [] | [ _ ] -> ()
      | segs ->
        let t0 = now () in
        library_call t;
        let total = now () -. t0 in
        let slowest = List.fold_left Float.max 0. segs in
        fanout := ((total -. slowest) *. 1000.) :: !fanout;
        skew := (slowest /. Stats.mean (Array.of_list segs)) :: !skew);
      (* standalone probes: posting lookups per keyword, and the Fig. 4
         components that Ilist.build runs inside *)
      let keywords =
        match tc.probes with (db, q, _) :: _ -> Some (db, Query.keywords q) | [] -> None
      in
      (match keywords with
      | Some (db, ks) ->
        let idx = Pipeline.index db in
        List.iter (fun k -> postings := !postings + Array.length (Inverted_index.lookup idx k)) ks;
        let reps = 20 in
        let t0 = now () in
        for _ = 1 to reps do
          List.iter (fun k -> ignore (Sys.opaque_identity (Inverted_index.lookup idx k))) ks
        done;
        lookup_s := !lookup_s +. (now () -. t0);
        lookups := !lookups + (reps * List.length ks)
      | None -> ());
      List.iteri
        (fun k (db, q, res) ->
          if k < 5 then begin
            incr probes;
            let t0 = now () in
            ignore (Return_entity.return_entities (Pipeline.kinds db) res q);
            let t1 = now () in
            ignore (Result_key.key_of_result (Pipeline.keys db) (Pipeline.kinds db) res q);
            let t2 = now () in
            re_s := !re_s +. (t1 -. t0);
            rk_s := !rk_s +. (t2 -. t1)
          end)
        tc.probes);
    incr i
  done;
  let replayed = !reads in
  Printf.printf "replay: %d of %d scheduled requests replayed in %.2f s\n%!" !i
    (Array.length kinds) (now () -. t_start);
  (* export the spans and read them back *)
  let trace_path = Filename.concat inputs.Spec.dir "trace.json" in
  Spec.write_file trace_path (Trace_export.render (Trace.finished ()));
  let events = events_of_json (Jread.parse (In_channel.with_open_bin trace_path In_channel.input_all)) in
  let selfs = self_times events in
  let total name = List.fold_left (fun a e -> if e.ename = name then a +. e.dur else a) 0. events in
  let count name = List.fold_left (fun a e -> if e.ename = name then a + 1 else a) 0 events in
  let per name scale = if count name = 0 then 0. else total name /. float_of_int (count name) *. scale in
  let per_req name scale = total name /. float_of_int (max 1 replayed) *. scale in
  (* trace timestamps are microseconds *)
  report ~n:(count "search.eval_ctx") "search.eval_ctx_us" "us" (per "search.eval_ctx" 1.);
  report ~n:(count "search.engine") "search.engine_ms" "ms" (per "search.engine" 1e-3);
  report ~n:replayed "search.results_per_query" "count"
    (float_of_int !results /. float_of_int (max 1 replayed));
  report ~n:(count "snippet.feature") "snippet.feature_ms" "ms" (per "snippet.feature" 1e-3);
  report ~n:(count "snippet.ilist") "snippet.ilist_ms" "ms" (per "snippet.ilist" 1e-3);
  report ~n:(count "snippet.select") "snippet.select_us" "us" (per "snippet.select" 1.);
  report ~n:(count "snippet.render") "snippet.render_ms" "ms" (per "snippet.render" 1e-3);
  report ~n:!probes "snippet.return_entity_us" "us"
    (!re_s *. 1e6 /. float_of_int (max 1 !probes));
  report ~n:!probes "snippet.result_key_us" "us" (!rk_s *. 1e6 /. float_of_int (max 1 !probes));
  report ~n:!lookups "store.lookup_us" "us" (!lookup_s *. 1e6 /. float_of_int (max 1 !lookups));
  report ~n:replayed "store.postings_per_query" "count"
    (float_of_int !postings /. float_of_int (max 1 replayed));
  report ~n:replayed "segments.generated_per_query" "count"
    (float_of_int !generated /. float_of_int (max 1 replayed));
  report ~n:replayed "segments.useful_ratio" "ratio"
    (if !generated = 0 then 0. else float_of_int !returned /. float_of_int !generated);
  if count "search.rank" > 0 then
    report ~n:replayed "search.rank_ms" "ms" (per_req "search.rank" 1e-3);
  if count "segments.merge" > 0 then
    report ~n:(count "segments.merge") "segments.merge_us" "us" (per "segments.merge" 1.);
  if !fanout <> [] then begin
    report ~n:(List.length !fanout) "segments.fanout_overhead_ms" "ms"
      (Stats.mean (Array.of_list !fanout));
    report ~n:(List.length !skew) "segments.shard_skew" "ratio" (Stats.mean (Array.of_list !skew))
  end;
  let handle = Array.of_list !handle_s in
  report ~n:(Array.length handle) "server.handle_ms" "ms" (Stats.mean handle *. 1000.);
  report ~n:replayed "gc.minor_words_per_req" "words" (!minor /. float_of_int (max 1 replayed));
  report ~n:replayed "gc.major_per_1k_req" "count"
    (float_of_int !major *. 1000. /. float_of_int (max 1 replayed));
  report ~n:replayed "trace.overhead_ratio" "ratio"
    (Stats.median (Array.of_list !traced_s) /. Stats.median (Array.of_list !untraced_s));
  let request_us = total "replay.request" in
  let layer_us = List.fold_left (fun a name -> a +. total name) 0. layers in
  let coverage = if request_us <= 0. then 0. else layer_us /. request_us in
  report ~n:(count "replay.request") "trace.coverage_ratio" "ratio" coverage;
  (* the layer spans must explain the request: below 90% the replay
     spends its time in calls no layer metric sees *)
  if coverage < 0.9 then begin
    incr failed;
    Printf.printf "replay: layer spans cover %.1f%% of request time, below 90%%\n%!"
      (coverage *. 100.)
  end;
  (* the largest self times, for the run log *)
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (e, s) ->
      Hashtbl.replace by_name e.ename (s +. Option.value ~default:0. (Hashtbl.find_opt by_name e.ename)))
    selfs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  |> List.iter (fun (k, v) -> Printf.printf "self time %-22s %12.3f ms\n" k (v /. 1000.));
  (match live, store with
  | Some lv, Some dir ->
    let adds = Array.of_list !add_ms in
    report ~n:(Array.length adds) "live.add_p50_ms" "ms" (Stats.median adds);
    report ~n:(Array.length adds) "live.add_p99_ms" "ms" (Stats.quantile adds 0.99);
    report ~n:(List.length !compact_ms) "live.compact_ms" "ms" (List.fold_left ( +. ) 0. !compact_ms);
    Live_corpus.close lv;
    report ~n:3 "live.recover_s" "s"
      (median_time 3 (fun () -> Live_corpus.close (Live_corpus.open_dir ~read_only:true dir)))
  | _ -> ());
  { attempted = !attempted; failed = !failed }
