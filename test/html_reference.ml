(* The result-page renderer as it was before the page was written into
   one buffer, kept verbatim as the reference for the byte-identity
   property in test_extensions.ml: every page [Html_view.result_page]
   renders must equal [result_page] here, byte for byte. *)

module Document = Extract_store.Document
module Result_tree = Extract_search.Result_tree
open Extract_snippet

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Shared nested-list renderer over any (label, children) tree view. *)
let rec render_node buf ~label ~children node =
  Buffer.add_string buf "<li>";
  Buffer.add_string buf (label node);
  (match children node with
  | [] -> ()
  | kids ->
    Buffer.add_string buf "<ul>";
    List.iter (render_node buf ~label ~children) kids;
    Buffer.add_string buf "</ul>");
  Buffer.add_string buf "</li>"

let labelled_tree ~class_ ~root ~label ~children =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "<ul class=\"%s\">" class_);
  render_node buf ~label ~children root;
  Buffer.add_string buf "</ul>";
  Buffer.contents buf

let doc_label doc n =
  if Document.has_only_text_children doc n then
    Printf.sprintf "<span class=\"tag\">%s</span> <span class=\"value\">%s</span>"
      (escape (Document.tag_name doc n))
      (escape (String.trim (Document.immediate_text doc n)))
  else Printf.sprintf "<span class=\"tag\">%s</span>" (escape (Document.tag_name doc n))

let snippet_to_html snippet =
  let result = Snippet_tree.result snippet in
  let doc = Result_tree.document result in
  labelled_tree ~class_:"snippet" ~root:(Result_tree.root result)
    ~label:(doc_label doc)
    ~children:(fun n ->
      Result_tree.children result n
      |> List.filter (fun c -> Document.is_element doc c && Snippet_tree.mem snippet c))

let result_tree_to_html result =
  let doc = Result_tree.document result in
  labelled_tree ~class_:"result" ~root:(Result_tree.root result) ~label:(doc_label doc)
    ~children:(fun n ->
      Result_tree.children result n |> List.filter (Document.is_element doc))

let css =
  {|
  body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem; }
  h1 { font-size: 1.3rem; }
  .meta { color: #555; margin-bottom: 1.5rem; }
  .hit { border: 1px solid #ddd; border-radius: 6px; padding: 0.8rem 1rem; margin: 1rem 0; }
  ul.snippet, ul.result, ul.snippet ul, ul.result ul { list-style: none; padding-left: 1.2rem;
    border-left: 1px dotted #bbb; margin: 0.2rem 0; }
  .tag { color: #14548c; font-weight: 600; }
  .value { color: #222; }
  .ilist { font-size: 0.85rem; color: #666; margin-top: 0.5rem; }
  .degraded { color: #a05a00; background: #fff3e0; border-radius: 4px;
    padding: 0 0.4rem; font-size: 0.8rem; margin-left: 0.5rem; }
  details { margin-top: 0.6rem; }
  summary { cursor: pointer; color: #14548c; }
  details.explain table { border-collapse: collapse; font-size: 0.85rem; margin-top: 0.4rem; }
  details.explain th, details.explain td { border: 1px solid #ddd; padding: 0.15rem 0.5rem;
    text-align: left; }
  details.explain th { background: #f4f7fa; font-weight: 600; }
  .st-covered { color: #1b6e1b; }
  .st-skipped { color: #a05a00; }
  .st-uncoverable { color: #888; }
|}

(* The expandable per-result explain panel: one table row per IList
   entry with its dominance score and selection fate. *)
let explain_panel ~index (r : Pipeline.snippet_result) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "<details class=\"explain\"><summary>explain</summary>";
  if r.Pipeline.degraded then
    Buffer.add_string buf
      "<p class=\"st-skipped\">degraded: baseline snippet, no IList accounting</p>"
  else begin
    let ex = Explain.result_explain_of ~index r in
    Buffer.add_string buf
      (Printf.sprintf "<p>%d covered &middot; %d skipped &middot; %d uncoverable &middot; %d/%d edges used</p>"
         ex.Explain.covered_count ex.Explain.skipped_count ex.Explain.uncoverable_count
         ex.Explain.edges_used ex.Explain.bound);
    Buffer.add_string buf
      "<table><tr><th>#</th><th>kind</th><th>item</th><th>DS</th><th>outcome</th></tr>";
    List.iter
      (fun (e : Explain.entry) ->
        let score =
          match e.Explain.feature with
          | Some (_, stats) -> Printf.sprintf "%.2f" stats.Feature.score
          | None -> ""
        in
        let cls, outcome =
          match e.Explain.status with
          | Explain.Covered { tag; cost; _ } ->
            ( "st-covered",
              if cost = 0 then Printf.sprintf "covered free via &lt;%s&gt;" (escape tag)
              else Printf.sprintf "covered via &lt;%s&gt; (+%d)" (escape tag) cost )
          | Explain.Skipped -> "st-skipped", "skipped"
          | Explain.Uncoverable -> "st-uncoverable", "uncoverable"
        in
        Buffer.add_string buf
          (Printf.sprintf
             "<tr><td>%d</td><td>%s</td><td>%s</td><td>%s</td><td class=\"%s\">%s</td></tr>"
             e.Explain.rank e.Explain.kind (escape e.Explain.display) score cls outcome))
      ex.Explain.entries;
    Buffer.add_string buf "</table>"
  end;
  Buffer.add_string buf "</details>";
  Buffer.contents buf

let result_page ?(title = "eXtract") ~query ~bound results =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">";
  Buffer.add_string buf (Printf.sprintf "<title>%s</title>" (escape title));
  Buffer.add_string buf (Printf.sprintf "<style>%s</style></head><body>" css);
  let degraded_count =
    List.length (List.filter (fun r -> r.Pipeline.degraded) results)
  in
  Buffer.add_string buf
    (Printf.sprintf "<h1>%s</h1><p class=\"meta\">query: <b>%s</b> &middot; %d result(s) &middot; snippet bound: %d edges%s</p>"
       (escape title) (escape query) (List.length results) bound
       (if degraded_count = 0 then ""
        else Printf.sprintf " &middot; %d degraded snippet(s)" degraded_count));
  List.iteri
    (fun i (r : Pipeline.snippet_result) ->
      Buffer.add_string buf "<div class=\"hit\">";
      Buffer.add_string buf
        (Printf.sprintf "<div class=\"rank\">result %d%s</div>" (i + 1)
           (if r.Pipeline.degraded then
              "<span class=\"degraded\" title=\"deadline expired: baseline snippet\">degraded</span>"
            else ""));
      Buffer.add_string buf (snippet_to_html r.Pipeline.selection.Selector.snippet);
      Buffer.add_string buf
        (Printf.sprintf "<div class=\"ilist\">IList: %s</div>"
           (escape (Ilist.to_string r.Pipeline.ilist)));
      Buffer.add_string buf (explain_panel ~index:i r);
      Buffer.add_string buf "<details><summary>complete query result</summary>";
      Buffer.add_string buf (result_tree_to_html r.Pipeline.result);
      Buffer.add_string buf "</details></div>")
    results;
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf
