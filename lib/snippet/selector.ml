module Document = Extract_store.Document

type covered = {
  entry : Ilist.entry;
  instance : Document.node;
  cost : int;
}

type selection = {
  snippet : Snippet_tree.t;
  covered : covered list;
  skipped : Ilist.entry list;
  uncoverable : Ilist.entry list;
  bound : int;
}

(* The cheapest instance for the entry under the current snippet. Instances
   are in document order; ties keep the first, so selection is
   deterministic. *)
let cheapest snippet (entry : Ilist.entry) =
  Array.fold_left
    (fun best inst ->
      let cost = Snippet_tree.cost_of snippet inst in
      match best with
      | Some (_, best_cost) when best_cost <= cost -> best
      | _ -> Some (inst, cost))
    None entry.instances

let greedy ?(skip_overflow = true) ~bound result ilist =
  if bound < 0 then invalid_arg "Selector.greedy: negative bound";
  let snippet = Snippet_tree.create result in
  let covered = ref [] in
  let skipped = ref [] in
  let uncoverable = ref [] in
  let stopped = ref false in
  for i = 0 to Ilist.length ilist - 1 do
    let entry = Ilist.get ilist i in
    if Array.length entry.Ilist.instances = 0 then uncoverable := entry :: !uncoverable
    else if !stopped then skipped := entry :: !skipped
    else begin
      match cheapest snippet entry with
      | None -> uncoverable := entry :: !uncoverable
      | Some (instance, cost) ->
        if Snippet_tree.edge_count snippet + cost <= bound then begin
          let added = Snippet_tree.add snippet instance in
          assert (List.length added = cost);
          covered := { entry; instance; cost } :: !covered
        end
        else begin
          skipped := entry :: !skipped;
          (* strict-prefix ablation: a naive reading of §2.4 stops at the
             first item that does not fit instead of trying cheaper,
             lower-ranked ones *)
          if not skip_overflow then stopped := true
        end
    end
  done;
  {
    snippet;
    covered = List.rev !covered;
    skipped = List.rev !skipped;
    uncoverable = List.rev !uncoverable;
    bound;
  }

let covered_count s = List.length s.covered

let coverage s =
  let coverable = List.length s.covered + List.length s.skipped in
  if coverable = 0 then 1.0
  else float_of_int (List.length s.covered) /. float_of_int coverable
