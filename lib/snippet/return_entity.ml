module Document = Extract_store.Document
module Node_kind = Extract_store.Node_kind
module Result_tree = Extract_search.Result_tree
module Query = Extract_search.Query
module Tokenizer = Extract_store.Tokenizer

let matches_name query name =
  List.exists (fun tok -> Query.mem query tok) (Tokenizer.tokens name)

let entity_instances kinds result =
  let acc = ref [] in
  Result_tree.iter_elements result (fun n ->
      if Node_kind.is_entity kinds n then acc := n :: !acc);
  List.rev !acc

(* Whether a tag name matches depends only on the query and the tag, so
   one call decides it once per distinct tag id: 0 = not yet decided,
   1 = no, 2 = yes. *)
let tag_matcher doc query =
  let memo = Bytes.make (Extract_util.Interner.count (Document.tag_interner doc)) '\000' in
  fun node ->
    let tag = Document.tag_id doc node in
    match Bytes.get memo tag with
    | '\000' ->
      let m = matches_name query (Document.tag_name doc node) in
      Bytes.set memo tag (if m then '\002' else '\001');
      m
    | c -> c = '\002'

let name_or_attribute_matches kinds result matches node =
  let doc = Result_tree.document result in
  matches node
  ||
  let found = ref false in
  Document.iter_children doc node (fun c ->
      if (not !found) && Result_tree.mem result c && Document.is_element doc c
         && Node_kind.is_attribute kinds c && matches c
      then found := true);
  !found

(* The result is ancestor-closed, so the walk from an instance up to the
   root stays inside it. *)
let highest_entities kinds result =
  let doc = Result_tree.document result in
  let root = Result_tree.root result in
  let rec highest n =
    n = root
    ||
    let p = Document.parent_exn doc n in
    (not (Node_kind.is_entity kinds p)) && highest p
  in
  entity_instances kinds result |> List.filter highest

let return_entities kinds result query =
  let matches = tag_matcher (Result_tree.document result) query in
  let matching = ref [] in
  Result_tree.iter_elements result (fun n ->
      if Node_kind.is_entity kinds n && name_or_attribute_matches kinds result matches n then
        matching := n :: !matching);
  match !matching with
  | [] -> highest_entities kinds result
  | matching -> List.rev matching

let supporting_entities kinds result query =
  let returns = return_entities kinds result query in
  let set = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace set n ()) returns;
  entity_instances kinds result |> List.filter (fun n -> not (Hashtbl.mem set n))
