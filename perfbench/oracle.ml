(* The answer oracle: a served body must be byte for byte the page the
   library builds in-process for the same request. *)

module Pipeline = Extract_snippet.Pipeline
module Shard_set = Extract_snippet.Shard_set
module Html_view = Extract_snippet.Html_view

let expected_page (r : Spec.record) (inputs : Spec.inputs) ~shards (t : Spec.target) =
  match r.Spec.route, inputs.Spec.db, shards with
  | Spec.Search, Some db, _ ->
    Some
      (Html_view.result_page ~title:"eXtract — retail" ~query:t.Spec.query ~bound:t.Spec.bound
         (Pipeline.run ~bound:t.Spec.bound ~limit:25 db t.Spec.query))
  | Spec.Shards, _, Some s ->
    Some
      (Html_view.result_page
         ~title:(Printf.sprintf "eXtract — sharded (%d shards)" (Shard_set.shard_count s))
         ~query:t.Spec.query ~bound:t.Spec.bound
         (List.map
            (fun (h : Shard_set.hit) -> h.Shard_set.result)
            (Shard_set.run ~parallel:false ~bound:t.Spec.bound ?limit:r.Spec.limit s
               t.Spec.query)))
  | _ -> None

(* [samples]: (target, served body). Returns (checked, wrong); live
   reads have no in-process reference and are not checked here. *)
let check (r : Spec.record) (inputs : Spec.inputs) samples =
  let shards = Option.map Shard_set.load_dir inputs.Spec.shard_dir in
  List.fold_left
    (fun (checked, wrong) ((t : Spec.target), body) ->
      match expected_page r inputs ~shards t with
      | Some page when String.equal page body -> checked + 1, wrong
      | Some _ ->
        Printf.printf "oracle: wrong answer for %s\n%!" (Spec.target_path r t);
        checked + 1, wrong + 1
      | None -> checked, wrong)
    (0, 0) samples
