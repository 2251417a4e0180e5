module Document = Extract_store.Document
module Pretty = Extract_util.Pretty

(* [members] is sorted, ancestor-closed and starts at the root, so it is
   contiguous exactly when it spans [root, last] without a gap. Every
   [full] tree is; a match-paths tree usually is not. Membership is then
   an interval test, or a binary search over [members]. *)
type t = {
  doc : Document.t;
  root : Document.node;
  members : Document.node array; (* sorted, ancestor-closed, root included *)
  last : Document.node; (* the largest member *)
  contiguous : bool; (* members = [root, last] *)
}

let of_sorted_members doc root members =
  let last = members.(Array.length members - 1) in
  { doc; root; members; last; contiguous = last - root = Array.length members - 1 }

let full doc root =
  let last = Document.subtree_last doc root in
  let members = Array.init (last - root + 1) (fun i -> root + i) in
  of_sorted_members doc root members

let close_upward doc root nodes =
  let set = Hashtbl.create 64 in
  let rec add n =
    if not (Hashtbl.mem set n) then begin
      Hashtbl.add set n ();
      if n <> root then
        match Document.parent doc n with
        | Some p -> add p
        | None ->
          invalid_arg "Result_tree: a member does not descend from the root"
    end
  in
  List.iter
    (fun n ->
      if not (Document.is_ancestor_or_self doc ~anc:root ~desc:n) then
        invalid_arg "Result_tree: a member lies outside the root's subtree";
      add n)
    nodes;
  add root;
  let members = Hashtbl.fold (fun n () acc -> n :: acc) set [] in
  Array.of_list (List.sort Int.compare members)

let of_members doc ~root nodes =
  of_sorted_members doc root (close_upward doc root nodes)

let match_paths doc ~root ~matches = of_members doc ~root matches

let document t = t.doc

let root t = t.root

let mem t n =
  if t.contiguous then t.root <= n && n <= t.last
  else begin
    let i = Extract_store.Postings.lower_bound t.members n in
    i < Array.length t.members && t.members.(i) = n
  end

let size t = Array.length t.members

let element_size t =
  Array.fold_left (fun acc n -> if Document.is_element t.doc n then acc + 1 else acc) 0 t.members

let edge_count t = element_size t - 1

let members t = t.members

let children t n =
  List.filter (fun c -> mem t c) (Document.children t.doc n)

let iter_elements t f =
  Array.iter (fun n -> if Document.is_element t.doc n then f n) t.members

let fold_elements t f acc =
  Array.fold_left (fun acc n -> if Document.is_element t.doc n then f acc n else acc) acc t.members

let parent_in t n =
  if n = t.root then None
  else
    match Document.parent t.doc n with
    | Some p when mem t p -> Some p
    | _ -> None

(* The members all lie in [root, last], so only the postings in that
   interval can qualify: binary-search the range instead of scanning the
   whole list (postings scale with the document, the range with the
   result). A contiguous tree keeps the whole range. *)
let restrict_matches t postings =
  let lo = Extract_store.Postings.lower_bound postings t.root in
  let hi = Extract_store.Postings.lower_bound postings (t.last + 1) in
  let out = ref [] in
  for i = hi - 1 downto lo do
    let n = postings.(i) in
    if t.contiguous || mem t n then out := n :: !out
  done;
  !out

let text_of t =
  let buf = Buffer.create 128 in
  Array.iter
    (fun n ->
      if not (Document.is_element t.doc n) then begin
        if Buffer.length buf > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf (Document.text t.doc n)
      end)
    t.members;
  Buffer.contents buf

let label t n =
  let doc = t.doc in
  if Document.has_only_text_children doc n then
    Printf.sprintf "%s \"%s\"" (Document.tag_name doc n)
      (String.trim (Document.immediate_text doc n))
  else Document.tag_name doc n

let rec pretty_of t n =
  let kids =
    children t n
    |> List.filter (fun c -> Document.is_element t.doc c)
    |> List.map (pretty_of t)
  in
  Pretty.Node (label t n, kids)

let to_pretty t = pretty_of t t.root

let rec xml_of t n =
  if Document.is_element t.doc n then
    Extract_xml.Types.Element
      {
        Extract_xml.Types.tag = Document.tag_name t.doc n;
        attrs = [];
        children = List.map (xml_of t) (children t n);
      }
  else Extract_xml.Types.Text (Document.text t.doc n)

let to_xml t = xml_of t t.root
