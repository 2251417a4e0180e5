module Document = Extract_store.Document
module Result_tree = Extract_search.Result_tree

(* Every writer below appends to the page's one buffer: no fragment is
   built as a string of its own and copied in afterwards. *)

(* [s.[pos .. pos + len)] HTML-escaped; runs of plain bytes are copied
   with one [add_substring] each. *)
let escape_sub_into buf s pos len =
  let run = ref pos in
  let entity i e =
    Buffer.add_substring buf s !run (i - !run);
    Buffer.add_string buf e;
    run := i + 1
  in
  for i = pos to pos + len - 1 do
    match String.unsafe_get s i with
    | '&' -> entity i "&amp;"
    | '<' -> entity i "&lt;"
    | '>' -> entity i "&gt;"
    | '"' -> entity i "&quot;"
    | _ -> ()
  done;
  Buffer.add_substring buf s !run (pos + len - !run)

let escape_into buf s = escape_sub_into buf s 0 (String.length s)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  escape_into buf s;
  Buffer.contents buf

(* the bytes [String.trim] drops *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* [String.trim s], escaped, without the trimmed copy *)
let escape_trimmed_into buf s =
  let i = ref 0 and j = ref (String.length s) in
  while !i < !j && is_space (String.unsafe_get s !i) do incr i done;
  while !j > !i && is_space (String.unsafe_get s (!j - 1)) do decr j done;
  escape_sub_into buf s !i (!j - !i)

(* A node's label: its tag, and for a paper "attribute" (text children
   only) the trimmed text as the value. *)
let label_into buf doc n =
  Buffer.add_string buf "<span class=\"tag\">";
  escape_into buf (Document.tag_name doc n);
  Buffer.add_string buf "</span>";
  (* the common attribute shape, one text child, is trimmed by index *)
  let one_text_child = Document.subtree_size doc n = 2 && not (Document.is_element doc (n + 1)) in
  if one_text_child || Document.has_only_text_children doc n then begin
    Buffer.add_string buf " <span class=\"value\">";
    if one_text_child then escape_trimmed_into buf (Document.text doc (n + 1))
    else escape_trimmed_into buf (Document.immediate_text doc n);
    Buffer.add_string buf "</span>"
  end

(* The snippet as a nested list. A snippet member is always an element of
   the result (Snippet_tree.add checks it), so membership in the snippet
   alone picks the children. *)
let rec snippet_node_into buf doc snippet n =
  Buffer.add_string buf "<li>";
  label_into buf doc n;
  let opened = ref false in
  Document.iter_children doc n (fun c ->
      if Snippet_tree.mem snippet c then begin
        if not !opened then begin
          Buffer.add_string buf "<ul>";
          opened := true
        end;
        snippet_node_into buf doc snippet c
      end);
  if !opened then Buffer.add_string buf "</ul>";
  Buffer.add_string buf "</li>"

let snippet_into buf snippet =
  let result = Snippet_tree.result snippet in
  Buffer.add_string buf "<ul class=\"snippet\">";
  snippet_node_into buf (Result_tree.document result) snippet (Result_tree.root result);
  Buffer.add_string buf "</ul>"

(* The complete result as the same nested list, in one pre-order scan of
   its members. The members are sorted and ancestor-closed, so the open
   [<li>]s form a stack whose top is the parent of the next element
   member once every node it does not descend from is closed. [leaf]
   says the top has had no child yet: it closes with a bare [</li>], and
   its first child opens its [<ul>]. *)
let result_tree_into buf result =
  let doc = Result_tree.document result in
  let leaf = ref false in
  let close_one () =
    Buffer.add_string buf (if !leaf then "</li>" else "</ul></li>");
    leaf := false
  in
  let rec close_until n = function
    | top :: rest when n > Document.subtree_last doc top ->
      close_one ();
      close_until n rest
    | open_ -> open_
  in
  Buffer.add_string buf "<ul class=\"result\">";
  let open_ =
    Array.fold_left
      (fun open_ n ->
        if not (Document.is_element doc n) then open_
        else begin
          let open_ = close_until n open_ in
          if !leaf then Buffer.add_string buf "<ul>";
          Buffer.add_string buf "<li>";
          label_into buf doc n;
          leaf := true;
          n :: open_
        end)
      [] (Result_tree.members result)
  in
  List.iter (fun _ -> close_one ()) open_;
  Buffer.add_string buf "</ul>"

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
let explain_panel_into buf ~index (r : Pipeline.snippet_result) =
  Buffer.add_string buf "<details class=\"explain\"><summary>explain</summary>";
  if r.Pipeline.degraded then
    Buffer.add_string buf
      "<p class=\"st-skipped\">degraded: baseline snippet, no IList accounting</p>"
  else begin
    let ex = Explain.result_explain_of ~index r in
    Printf.bprintf buf
      "<p>%d covered &middot; %d skipped &middot; %d uncoverable &middot; %d/%d edges used</p>"
      ex.Explain.covered_count ex.Explain.skipped_count ex.Explain.uncoverable_count
      ex.Explain.edges_used ex.Explain.bound;
    Buffer.add_string buf
      "<table><tr><th>#</th><th>kind</th><th>item</th><th>DS</th><th>outcome</th></tr>";
    List.iter
      (fun (e : Explain.entry) ->
        Printf.bprintf buf "<tr><td>%d</td><td>%s</td><td>%a</td><td>" e.Explain.rank
          e.Explain.kind escape_into e.Explain.display;
        (match e.Explain.feature with
        | Some (_, stats) -> Printf.bprintf buf "%.2f" stats.Feature.score
        | None -> ());
        (match e.Explain.status with
        | Explain.Covered { tag; cost = 0; _ } ->
          Printf.bprintf buf "</td><td class=\"st-covered\">covered free via &lt;%a&gt;" escape_into tag
        | Explain.Covered { tag; cost; _ } ->
          Printf.bprintf buf "</td><td class=\"st-covered\">covered via &lt;%a&gt; (+%d)" escape_into
            tag cost
        | Explain.Skipped -> Buffer.add_string buf "</td><td class=\"st-skipped\">skipped"
        | Explain.Uncoverable -> Buffer.add_string buf "</td><td class=\"st-uncoverable\">uncoverable");
        Buffer.add_string buf "</td></tr>")
      ex.Explain.entries;
    Buffer.add_string buf "</table>"
  end;
  Buffer.add_string buf "</details>"

(* Roughly the page's final size, so the buffer is allocated once
   instead of doubling up from a small start: a fixed head plus, per
   result, its member count at about the bytes a complete-result node
   takes. *)
let page_capacity results =
  List.fold_left
    (fun n (r : Pipeline.snippet_result) -> n + 1024 + (64 * Result_tree.size r.Pipeline.result))
    (String.length css + 1024) results

let page_into buf ~title ~query ~bound results =
  let degraded_count =
    List.fold_left (fun n r -> if r.Pipeline.degraded then n + 1 else n) 0 results
  in
  Printf.bprintf buf
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%a</title><style>%s</style></head><body>\
     <h1>%a</h1><p class=\"meta\">query: <b>%a</b> &middot; %d result(s) &middot; snippet bound: %d edges"
    escape_into title css escape_into title escape_into query (List.length results) bound;
  if degraded_count > 0 then Printf.bprintf buf " &middot; %d degraded snippet(s)" degraded_count;
  Buffer.add_string buf "</p>";
  List.iteri
    (fun i (r : Pipeline.snippet_result) ->
      Printf.bprintf buf "<div class=\"hit\"><div class=\"rank\">result %d%s</div>" (i + 1)
        (if r.Pipeline.degraded then
           "<span class=\"degraded\" title=\"deadline expired: baseline snippet\">degraded</span>"
         else "");
      snippet_into buf r.Pipeline.selection.Selector.snippet;
      Printf.bprintf buf "<div class=\"ilist\">IList: %a</div>" escape_into
        (Ilist.to_string r.Pipeline.ilist);
      explain_panel_into buf ~index:i r;
      Buffer.add_string buf "<details><summary>complete query result</summary>";
      result_tree_into buf r.Pipeline.result;
      Buffer.add_string buf "</details></div>")
    results;
  Buffer.add_string buf "</body></html>\n"

let page_buffer ?(title = "eXtract") ~query ~bound results =
  let buf = Buffer.create (page_capacity results) in
  page_into buf ~title ~query ~bound results;
  buf

let result_page ?title ~query ~bound results =
  Buffer.contents (page_buffer ?title ~query ~bound results)

let write_page ~path ?title ~query ~bound results =
  let buf = page_buffer ?title ~query ~bound results in
  let oc = open_out_bin path in
  (try Buffer.output_buffer oc buf
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc
