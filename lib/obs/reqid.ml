(* Request ids are small sequential tokens ("q000042"), not UUIDs: the
   process is the correlation domain (logs, spans, slowlog all live in
   one process), so short monotonic ids read better in terminals and
   cost nothing. The current id is domain-local, so the server's worker
   domains don't clobber each other. *)

let next = Atomic.make 1

let fresh () = Printf.sprintf "q%06d" (Atomic.fetch_and_add next 1)

let reset_counter () = Atomic.set next 1

let current_key : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = !(Domain.DLS.get current_key)

let with_id id f =
  let slot = Domain.DLS.get current_key in
  let saved = !slot in
  slot := Some id;
  match f () with
  | x ->
    slot := saved;
    x
  | exception e ->
    slot := saved;
    raise e

let ensure f =
  let slot = Domain.DLS.get current_key in
  match !slot with
  | Some id -> f id
  | None ->
    let id = fresh () in
    with_id id (fun () -> f id)
