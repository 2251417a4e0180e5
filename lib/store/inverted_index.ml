module Interner = Extract_util.Interner
module Arraylist = Extract_util.Arraylist

(* Posting lists come in two representations: plain sorted arrays (8
   bytes per posting — what [build] produces) and block-compressed
   {!Packed_postings} (1–2 bytes per posting — what {!Snapshot} maps).
   Every query entry point answers identically on both; the equivalence
   is property-tested in test_packed.ml. *)
type lists =
  | Plain of Document.node array array
  | Packed of Packed_postings.t array

type t = {
  doc : Document.t;
  tokens : Interner.t;
  postings : lists;                         (* token id -> sorted element ids *)
  tag_tokens : (int * int, unit) Hashtbl.t; (* (token id, tag id) membership *)
  mutable sorted_tokens : (string * int) array option;
      (* (token, id) sorted by token, built lazily on the first [complete];
         the vocabulary is fixed after [build], so the cache never goes
         stale *)
}

let build doc =
  let tokens = Interner.create ~capacity:1024 () in
  let lists : Document.node Arraylist.t Arraylist.t = Arraylist.create () in
  let tag_tokens = Hashtbl.create 256 in
  let posting_for tok =
    let id = Interner.intern tokens tok in
    while Arraylist.length lists <= id do
      Arraylist.push lists (Arraylist.create ())
    done;
    id, Arraylist.get lists id
  in
  (* Nodes are visited in pre-order, so posting lists stay sorted, with
     one exception: a text node posts its parent, and in mixed content
     (text after a child element) a descendant of that parent may have
     posted the token already. Those lists are sorted and deduplicated
     once at the end; elsewhere only consecutive duplicates (same node,
     same token twice) need removing. *)
  let unsorted = Hashtbl.create 8 in
  let add tok node =
    let id, list = posting_for tok in
    if Arraylist.is_empty list || Arraylist.last list < node then Arraylist.push list node
    else if Arraylist.last list > node then begin
      Hashtbl.replace unsorted id ();
      Arraylist.push list node
    end
  in
  for node = 0 to Document.node_count doc - 1 do
    if Document.is_element doc node then
      List.iter
        (fun tok ->
          let id, list = posting_for tok in
          Hashtbl.replace tag_tokens (id, Document.tag_id doc node) ();
          if Arraylist.is_empty list || Arraylist.last list <> node then
            Arraylist.push list node)
        (Tokenizer.tokens (Document.tag_name doc node))
    else begin
      match Document.parent doc node with
      | Some p -> List.iter (fun tok -> add tok p) (Tokenizer.tokens (Document.text doc node))
      | None -> ()
    end
  done;
  let postings = Array.make (Arraylist.length lists) [||] in
  Arraylist.iteri (fun i list -> postings.(i) <- Arraylist.to_array list) lists;
  Hashtbl.iter
    (fun id () -> postings.(id) <- Array.of_list (List.sort_uniq Int.compare (Array.to_list postings.(id))))
    unsorted;
  { doc; tokens; postings = Plain postings; tag_tokens; sorted_tokens = None }

let document t = t.doc

let token_count t = Interner.count t.tokens

let is_packed t =
  match t.postings with
  | Plain _ -> false
  | Packed _ -> true

let pack t =
  match t.postings with
  | Packed _ -> t
  | Plain arrays ->
    { t with postings = Packed (Array.map Packed_postings.of_array arrays) }

let list_length t id =
  match t.postings with
  | Plain arrays -> Array.length arrays.(id)
  | Packed packed -> Packed_postings.length packed.(id)

let postings_size t =
  let n = token_count t in
  let acc = ref 0 in
  for id = 0 to n - 1 do
    acc := !acc + list_length t id
  done;
  !acc

let postings_bytes t =
  (* approximate resident bytes of the posting lists alone: one word per
     posting plus a header word per plain array, vs the packed blocks'
     compressed footprint — the numerator and denominator of E22's
     compression ratio *)
  match t.postings with
  | Plain arrays -> Array.fold_left (fun acc l -> acc + (8 * (Array.length l + 1))) 0 arrays
  | Packed packed -> Array.fold_left (fun acc p -> acc + Packed_postings.byte_size p) 0 packed

let lookup t keyword =
  match Interner.find t.tokens (Tokenizer.normalize keyword) with
  | Some id -> (
    match t.postings with
    | Plain arrays -> arrays.(id)
    | Packed packed -> Packed_postings.to_array packed.(id))
  | None -> [||]

let matches t keyword = Array.to_list (lookup t keyword)

let contains t keyword =
  match Interner.find t.tokens (Tokenizer.normalize keyword) with
  | Some id -> list_length t id > 0
  | None -> false

let vocabulary t =
  let acc = ref [] in
  Interner.iter (fun _ s -> acc := s :: !acc) t.tokens;
  List.rev !acc

let mem_sorted list node =
  let rec search lo hi =
    if lo > hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if list.(mid) = node then true
      else if list.(mid) < node then search (mid + 1) hi
      else search lo (mid - 1)
    end
  in
  search 0 (Array.length list - 1)

let mem_posting t id node =
  match t.postings with
  | Plain arrays -> mem_sorted arrays.(id) node
  | Packed packed -> Packed_postings.mem packed.(id) node

let match_kind t ~keyword ~node =
  let tok = Tokenizer.normalize keyword in
  match Interner.find t.tokens tok with
  | None -> None
  | Some id ->
    if not (mem_posting t id node) then None
    else begin
      let tag_match =
        Document.is_element t.doc node && Hashtbl.mem t.tag_tokens (id, Document.tag_id t.doc node)
        && List.mem tok (Tokenizer.tokens (Document.tag_name t.doc node))
      in
      let value_match = List.mem tok (Tokenizer.tokens (Document.immediate_text t.doc node)) in
      match tag_match, value_match with
      | true, true -> Some `Both
      | false, true -> Some `Value
      | true, false | false, false -> Some `Tag
    end

let sorted_tokens t =
  match t.sorted_tokens with
  | Some arr -> arr
  | None ->
    let arr = Array.make (Interner.count t.tokens) ("", 0) in
    Interner.iter (fun id tok -> arr.(id) <- (tok, id)) t.tokens;
    Array.sort
      (fun (ta, ia) (tb, ib) ->
        let c = String.compare ta tb in
        if c <> 0 then c else Int.compare ia ib)
      arr;
    t.sorted_tokens <- Some arr;
    arr

let has_prefix ~prefix tok =
  String.length tok >= String.length prefix
  && String.sub tok 0 (String.length prefix) = prefix

(* Completions touch only the vocabulary range sharing the prefix: binary
   search for the first token >= prefix, then walk forward while the
   prefix holds. The old implementation scanned every token per
   keystroke. *)
let complete t ?(limit = 10) prefix =
  let prefix = Tokenizer.normalize prefix in
  if prefix = "" then []
  else begin
    let arr = sorted_tokens t in
    let n = Array.length arr in
    (* smallest index whose token is >= prefix *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst arr.(mid) >= prefix then hi := mid else lo := mid + 1
    done;
    let out = ref [] in
    let i = ref !lo in
    while !i < n && has_prefix ~prefix (fst arr.(!i)) do
      let tok, id = arr.(!i) in
      out := (tok, list_length t id) :: !out;
      incr i
    done;
    List.sort
      (fun (ta, ca) (tb, cb) -> if ca <> cb then Int.compare cb ca else String.compare ta tb)
      !out
    |> List.filteri (fun i _ -> i < limit)
  end

module Internal = struct
  type repr = {
    tokens : string array;
    postings : Document.node array array;
    tag_tokens : (int * int) array;
  }

  let token_names (idx : t) =
    let tokens = Array.make (Interner.count idx.tokens) "" in
    Interner.iter (fun id s -> tokens.(id) <- s) idx.tokens;
    tokens

  let tag_token_pairs (idx : t) =
    Hashtbl.fold (fun pair () acc -> pair :: acc) idx.tag_tokens []
    |> List.sort (fun (a1, a2) (b1, b2) ->
           if a1 <> b1 then Int.compare a1 b1 else Int.compare a2 b2)
    |> Array.of_list

  let to_repr (idx : t) =
    let postings =
      match idx.postings with
      | Plain arrays -> arrays
      | Packed packed -> Array.map Packed_postings.to_array packed
    in
    { tokens = token_names idx; postings; tag_tokens = tag_token_pairs idx }

  let of_repr ~doc (r : repr) =
    let tokens = Interner.create ~capacity:(Array.length r.tokens) () in
    Array.iter (fun s -> ignore (Interner.intern tokens s)) r.tokens;
    let tag_tokens = Hashtbl.create (Array.length r.tag_tokens) in
    Array.iter (fun pair -> Hashtbl.replace tag_tokens pair ()) r.tag_tokens;
    { doc; tokens; postings = Plain r.postings; tag_tokens; sorted_tokens = None }

  let packed_lists (idx : t) =
    match idx.postings with
    | Packed packed -> packed
    | Plain arrays -> Array.map Packed_postings.of_array arrays

  let of_packed ~doc ~tokens:token_names ~packed ~tag_tokens:pairs =
    if Array.length token_names <> Array.length packed then
      invalid_arg "Inverted_index.Internal.of_packed: token/list count mismatch";
    let tokens = Interner.create ~capacity:(Array.length token_names) () in
    Array.iter (fun s -> ignore (Interner.intern tokens s)) token_names;
    let tag_tokens = Hashtbl.create (max 16 (Array.length pairs)) in
    Array.iter (fun pair -> Hashtbl.replace tag_tokens pair ()) pairs;
    { doc; tokens; postings = Packed packed; tag_tokens; sorted_tokens = None }
end
