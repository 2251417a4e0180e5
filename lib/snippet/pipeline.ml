module Document = Extract_store.Document
module Node_kind = Extract_store.Node_kind
module Key_miner = Extract_store.Key_miner
module Inverted_index = Extract_store.Inverted_index
module Dataguide = Extract_store.Dataguide
module Engine = Extract_search.Engine
module Query = Extract_search.Query
module Result_tree = Extract_search.Result_tree
module Eval_ctx = Extract_search.Eval_ctx
module Deadline = Extract_util.Deadline
module Faults = Extract_util.Faults
module Registry = Extract_obs.Registry
module Trace = Extract_obs.Trace
module Log = Extract_obs.Log
module Reqid = Extract_obs.Reqid
module Capture = Extract_obs.Explain
module Jsonv = Extract_obs.Jsonv

type t = {
  id : int; (* unique per analyzed database; cache keys embed it *)
  doc : Document.t;
  guide : Dataguide.t;
  kinds : Node_kind.t;
  keys : Key_miner.t;
  index : Inverted_index.t;
}

let next_id = Atomic.make 0

(* Stage observer: a seam for opt-in invariant assertions (Extract_check
   installs one when EXTRACT_CHECK is set). No observer, no cost. *)

type observer = {
  on_built : t -> unit;
  on_results : t -> Result_tree.t list -> unit;
  on_snippets : t -> snippet_result list -> unit;
}

and snippet_result = {
  result : Result_tree.t;
  ilist : Ilist.t;
  selection : Selector.selection;
  degraded : bool;
}

(* init-only — installed by Check.install_from_env / test setup before
   any query runs; read-only from the worker domains *)
let observer : observer option ref = ref None

let set_observer o = observer := o

(* ------------------------------------------------------------------ *)
(* Observability: each stage records its latency into one shared
   histogram family (distinguished by the [stage] label) and opens a
   trace span, so `extract snippet --trace` and /metrics read the same
   boundaries the EXTRACT_CHECK observer sees. *)

let stage_histogram stage =
  Registry.histogram ~help:"Pipeline stage latency in seconds"
    ~labels:[ "stage", stage ] "extract_stage_duration_seconds"

let build_seconds = stage_histogram "build"

let search_seconds = stage_histogram "search"

let snippet_seconds = stage_histogram "snippet"

let queries_total =
  Registry.counter ~help:"Keyword queries evaluated (search or full runs)"
    "extract_queries_total"

let degraded_total =
  Registry.counter ~help:"Snippets degraded to the naive baseline"
    "extract_degraded_snippets_total"

let deadline_expired_total =
  Registry.counter ~help:"Per-result budget checks that found the deadline expired"
    "extract_deadline_expirations_total"

let timed hist span f =
  let t0 = Deadline.now () in
  let x = Trace.with_span span f in
  let dt = Deadline.now () -. t0 in
  Registry.observe hist dt;
  Log.debug "stage.done" [ "stage", Jsonv.Str span; "seconds", Jsonv.Float dt ];
  Capture.record span (fun () -> Jsonv.Float dt);
  x

(* Every run variant executes under a request id — the caller's scope
   when one is active (the server stamps one per HTTP request), else a
   fresh id for this call. The same id lands in the stage log lines, the
   trace spans and the explain capture, so one grep correlates them. *)
let query_scope event query_string ~count f =
  Reqid.ensure (fun _rid ->
      let t0 = Deadline.now () in
      match f () with
      | out ->
        (if Log.enabled Log.Info then begin
           let results, degraded = count out in
           Log.info event
             [ "query", Jsonv.Str query_string;
               "results", Jsonv.Int results;
               "degraded", Jsonv.Int degraded;
               "seconds", Jsonv.Float (Deadline.now () -. t0) ]
         end);
        out
      | exception e ->
        Log.warn "query.failed"
          [ "query", Jsonv.Str query_string;
            "error", Jsonv.Str (Printexc.to_string e);
            "seconds", Jsonv.Float (Deadline.now () -. t0) ];
        raise e)

let count_snippets snips =
  ( List.length snips,
    List.fold_left (fun n s -> if s.degraded then n + 1 else n) 0 snips )

let notify_built t =
  (match !observer with Some o -> o.on_built t | None -> ());
  t

let notify_results t results =
  (match !observer with Some o -> o.on_results t results | None -> ());
  results

let notify_snippets t snips =
  (match !observer with Some o -> o.on_snippets t snips | None -> ());
  snips

let build doc =
  timed build_seconds "pipeline.build" (fun () ->
      Faults.hit "pipeline.build";
      let guide = Dataguide.build doc in
      let kinds = Node_kind.classify guide in
      let keys = Key_miner.mine kinds in
      let index = Inverted_index.build doc in
      notify_built { id = Atomic.fetch_and_add next_id 1; doc; guide; kinds; keys; index })

let of_xml_string s = build (Document.load_string s)

let of_file path = build (Document.load_file path)

(* Rebuild everything derivable cheaply (classification, keys) and reuse
   the persisted index. *)
let of_parts doc index =
  timed build_seconds "pipeline.build" (fun () ->
      Faults.hit "pipeline.build";
      let guide = Dataguide.build doc in
      let kinds = Node_kind.classify guide in
      let keys = Key_miner.mine kinds in
      notify_built { id = Atomic.fetch_and_add next_id 1; doc; guide; kinds; keys; index })

let save path t = Extract_store.Persist.save_bundle path t.doc t.index

let load path =
  let doc, index = Extract_store.Persist.load_bundle path in
  of_parts doc index

let save_snapshot path t = Extract_store.Snapshot.save path t.doc t.index

let load_snapshot path =
  let doc, index = Extract_store.Snapshot.load path in
  of_parts doc index

let id t = t.id

let document t = t.doc

let kinds t = t.kinds

let keys t = t.keys

let index t = t.index

let dataguide t = t.guide

let default_bound = 10

let ilist_of ?config t result query =
  Ilist.build ?config t.kinds t.keys t.index result query

let snippet_with ?config ~bound ~ctx t result =
  let query = Eval_ctx.query ctx in
  let ilist = Ilist.build ?config ~ctx t.kinds t.keys t.index result query in
  let selection = Selector.greedy ~bound result ilist in
  { result; ilist; selection; degraded = false }

(* The degradation ladder's bottom rung: when the per-request budget is
   gone (or a fault is injected at [pipeline.snippet]), the result still
   gets a snippet — the O(bound) breadth-first {!Naive_baseline}
   truncation, with no IList and no selection bookkeeping. Cheap enough
   to be safe under any deadline that admitted the search itself. *)
let degraded_snippet ~bound result =
  Registry.incr degraded_total;
  let snippet = Naive_baseline.generate ~bound result in
  {
    result;
    ilist = Ilist.empty;
    selection = { Selector.snippet; covered = []; skipped = []; uncoverable = []; bound };
    degraded = true;
  }

let want_degraded deadline =
  if Deadline.expired deadline then begin
    Registry.incr deadline_expired_total;
    true
  end
  else Faults.should_fail "pipeline.snippet"

let snippet_of ?config ?(bound = default_bound) t result query =
  snippet_with ?config ~bound ~ctx:(Eval_ctx.make t.index query) t result

let context_of ?mask t query_string =
  Faults.hit "pipeline.search";
  Eval_ctx.make ?mask t.index (Query.of_string query_string)

(* Search stage shared by every run variant: one evaluation context, one
   engine pass, one histogram observation and trace span. *)
let search_ctx ?semantics ?limit ?mask t query_string =
  Registry.incr queries_total;
  timed search_seconds "pipeline.search" (fun () ->
      let ctx = context_of ?mask t query_string in
      ctx, notify_results t (Engine.run_ctx ?semantics ?limit ctx t.kinds))

let search ?semantics ?limit ?mask t query_string =
  query_scope "search.done" query_string
    ~count:(fun rs -> List.length rs, 0)
    (fun () ->
      let _, results = search_ctx ?semantics ?limit ?mask t query_string in
      results)

let run_differentiated ?semantics ?config ?(bound = default_bound) ?limit
    ?(deadline = Deadline.never) ?mask t query_string =
  query_scope "query.done" query_string ~count:count_snippets @@ fun () ->
  let ctx, results = search_ctx ?semantics ?limit ?mask t query_string in
  timed snippet_seconds "pipeline.snippet" (fun () ->
      (* one analysis per result, shared between the differentiator and each
         result's IList construction; a result whose analysis would start
         after the deadline degrades instead and takes no part in
         cross-result scoring *)
      let analyses =
        List.map
          (fun r ->
            if want_degraded deadline then r, None else r, Some (Feature.analyze t.kinds r))
          results
      in
      let differ = Differentiator.make (List.filter_map snd analyses) in
      Capture.record "differentiator" (fun () ->
          Jsonv.Arr
            (List.map
               (fun ((f : Feature.t), rf, d) ->
                 Jsonv.Obj
                   [ "entity", Jsonv.Str f.Feature.entity;
                     "attribute", Jsonv.Str f.Feature.attribute;
                     "value", Jsonv.Str f.Feature.value;
                     "result_frequency", Jsonv.Int rf;
                     "distinctiveness", Jsonv.Float d ])
               (Differentiator.report differ)));
      notify_snippets t
        (List.map
           (fun (result, analysis) ->
             match analysis with
             | None -> degraded_snippet ~bound result
             | Some analysis ->
               let ilist =
                 Differentiator.apply differ
                   (Ilist.build ?config ~ctx ~analysis t.kinds t.keys t.index result
                      (Eval_ctx.query ctx))
               in
               let selection = Selector.greedy ~bound result ilist in
               { result; ilist; selection; degraded = false })
           analyses))

let snippets ?config ?(bound = default_bound) ?(deadline = Deadline.never) t ctx results =
  timed snippet_seconds "pipeline.snippet" (fun () ->
      notify_snippets t
        (List.map
           (fun result ->
             (* the degraded snippet once the budget is gone *)
             if want_degraded deadline then degraded_snippet ~bound result
             else snippet_with ?config ~bound ~ctx t result)
           results))

let scoped query_string ~snippets f =
  query_scope "query.done" query_string ~count:(fun out -> count_snippets (snippets out)) f

let run ?semantics ?config ?bound ?limit ?deadline ?mask t query_string =
  query_scope "query.done" query_string ~count:count_snippets @@ fun () ->
  let ctx, results = search_ctx ?semantics ?limit ?mask t query_string in
  snippets ?config ?bound ?deadline t ctx results
