(* The per-result Fig. 4 components as they were before tag-name matches
   were memoized per tag, attribute values were read without a copy and
   result-tree membership stopped using a hash table, kept verbatim as
   the reference for the equivalence property in test_fig4.ml. Each
   module shadows the library module of the same name, so the copied
   code reads as it did; the result tree wraps a library tree with its
   old member hash set. *)

module Document = Extract_store.Document
module Dataguide = Extract_store.Dataguide
module Tokenizer = Extract_store.Tokenizer
module Query = Extract_search.Query

module Result_tree = struct
  type t = {
    tree : Extract_search.Result_tree.t;
    member_set : (Document.node, unit) Hashtbl.t;
  }

  let of_tree tree =
    let members = Extract_search.Result_tree.members tree in
    let member_set = Hashtbl.create (Array.length members) in
    Array.iter (fun n -> Hashtbl.replace member_set n ()) members;
    { tree; member_set }

  let document t = Extract_search.Result_tree.document t.tree

  let root t = Extract_search.Result_tree.root t.tree

  let members t = Extract_search.Result_tree.members t.tree

  let mem t n = Hashtbl.mem t.member_set n

  let children t n = List.filter (fun c -> mem t c) (Document.children (document t) n)

  let iter_elements t f =
    Array.iter (fun n -> if Document.is_element (document t) n then f n) (members t)

  let restrict_matches t postings =
    let lo, hi = Extract_store.Postings.subtree_range (document t) postings (root t) in
    let out = ref [] in
    for i = hi - 1 downto lo do
      let n = postings.(i) in
      if mem t n then out := n :: !out
    done;
    !out
end

module Node_kind = struct
  include Extract_store.Node_kind

  let trim = String.trim

  let attribute_value t node = trim (Document.immediate_text (document t) node)
end

module Key_miner = struct
  include Extract_store.Key_miner

  (* [kinds] was a field of the miner; it is passed here instead *)
  let key_of_instance kinds t e =
    let guide = Node_kind.dataguide kinds in
    let doc = Node_kind.document kinds in
    match key_path t (Dataguide.path_of_node guide e) with
    | None -> None
    | Some key_attr ->
      let attr_tag = Dataguide.path_tag guide key_attr in
      let found = ref None in
      Document.iter_children doc e (fun c ->
          if !found = None && Document.is_element doc c && Document.tag_id doc c = attr_tag
          then found := Some c);
      Option.map (fun a -> a, Node_kind.attribute_value kinds a) !found
end

module Return_entity = struct
  let matches_name query name =
    List.exists (fun tok -> Query.mem query tok) (Tokenizer.tokens name)

  let entity_instances kinds result =
    let acc = ref [] in
    Result_tree.iter_elements result (fun n ->
        if Node_kind.is_entity kinds n then acc := n :: !acc);
    List.rev !acc

  let name_or_attribute_matches kinds result query node =
    let doc = Result_tree.document result in
    matches_name query (Document.tag_name doc node)
    || List.exists
         (fun c ->
           Document.is_element doc c
           && Node_kind.is_attribute kinds c
           && matches_name query (Document.tag_name doc c))
         (Result_tree.children result node)

  let highest_entities kinds result =
    let doc = Result_tree.document result in
    entity_instances kinds result
    |> List.filter (fun n ->
           let rec up m =
             match Document.parent doc m with
             | None -> true
             | Some p ->
               if Result_tree.mem result p && Document.is_element doc p
                  && Node_kind.is_entity kinds p
               then false
               else up p
           in
           up n)

  let return_entities kinds result query =
    let matching =
      entity_instances kinds result
      |> List.filter (name_or_attribute_matches kinds result query)
    in
    match matching with
    | [] -> highest_entities kinds result
    | _ -> matching

  let supporting_entities kinds result query =
    let returns = return_entities kinds result query in
    let set = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace set n ()) returns;
    entity_instances kinds result |> List.filter (fun n -> not (Hashtbl.mem set n))
end

module Result_key = struct
  type key = {
    entity : Document.node;
    attribute : Document.node;
    value : string;
  }

  let key_of_result keys kinds result query =
    let doc = Result_tree.document result in
    let candidates =
      Return_entity.return_entities kinds result query
      |> List.sort (fun a b ->
             let da = Document.depth doc a and db = Document.depth doc b in
             if da <> db then Int.compare da db else Int.compare a b)
    in
    List.find_map
      (fun entity ->
        match Key_miner.key_of_instance kinds keys entity with
        | Some (attribute, value)
          when value <> "" && Result_tree.mem result attribute ->
          Some { entity; attribute; value }
        | Some _ | None -> None)
      candidates
end
