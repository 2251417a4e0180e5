module Deadline = Extract_util.Deadline

type span = {
  name : string;
  start : float;
  duration : float;
  rid : string option;
  dom : int;
  args : (string * string) list;
  children : span list;
}

(* an open span being built; children accumulate reversed *)
(* domain-local — open spans live on the per-domain DLS stack below *)
type building = {
  b_name : string;
  b_start : float;
  b_rid : string option;
  b_args : (string * string) list;
  mutable b_children : span list;
}

let on = Atomic.make false

let set_enabled v = Atomic.set on v

let enabled () = Atomic.get on

(* Per-scope recording: lets the server sample individual requests while
   process-wide tracing stays off. *)
let recording_key : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let recording () = Atomic.get on || !(Domain.DLS.get recording_key)

let with_recording f =
  let r = Domain.DLS.get recording_key in
  let saved = !r in
  r := true;
  match f () with
  | x ->
    r := saved;
    x
  | exception e ->
    r := saved;
    raise e

(* Per-domain open-span stack: the server's workers each trace their own
   requests without interleaving. *)
let stack_key : building list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* Completed roots, across all domains, newest first, bounded. *)
let roots_lock = Mutex.create ()

let roots : span list ref = ref [] (* guarded-by: roots_lock *)

let roots_len = ref 0 (* guarded-by: roots_lock *)

let default_capacity = 512

let capacity = Atomic.make default_capacity

let set_buffer_capacity n = Atomic.set capacity (max 1 n)

let buffer_capacity () = Atomic.get capacity

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

let push_root s =
  Mutex.lock roots_lock;
  roots := s :: !roots;
  incr roots_len;
  let cap = Atomic.get capacity in
  if !roots_len > cap then begin
    roots := take cap !roots;
    roots_len := cap
  end;
  Mutex.unlock roots_lock

let finished () =
  Mutex.lock roots_lock;
  let out = List.rev !roots in
  roots := [];
  roots_len := 0;
  Mutex.unlock roots_lock;
  out

let recent ?last () =
  Mutex.lock roots_lock;
  let all = !roots in
  Mutex.unlock roots_lock;
  let sel = match last with None -> all | Some n -> take (max 0 n) all in
  List.rev sel

let clear () =
  Mutex.lock roots_lock;
  roots := [];
  roots_len := 0;
  Mutex.unlock roots_lock;
  Domain.DLS.get stack_key := []

(* a finished span becomes a child of the open span below it, else a root *)
let attach stack s =
  match !stack with
  | top :: _ -> top.b_children <- s :: top.b_children
  | [] -> push_root s

let close_span stack b =
  attach stack
    {
      name = b.b_name;
      start = b.b_start;
      duration = Deadline.now () -. b.b_start;
      rid = b.b_rid;
      dom = (Domain.self () :> int);
      args = b.b_args;
      children = List.rev b.b_children;
    }

let with_span ?(args = []) name f =
  if not (recording ()) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let b =
      { b_name = name;
        b_start = Deadline.now ();
        b_rid = Reqid.current ();
        b_args = args;
        b_children = [] }
    in
    stack := b :: !stack;
    let pop () =
      (* unwind even past an exception; tolerate a clear() underneath us *)
      (match !stack with
      | top :: rest when top == b ->
        stack := rest;
        close_span stack b
      | _ -> ())
    in
    match f () with
    | x ->
      pop ();
      x
    | exception e ->
      pop ();
      raise e
  end

let add_span ?(args = []) ?rid name ~start ~duration =
  if recording () then begin
    let rid = match rid with Some _ as r -> r | None -> Reqid.current () in
    let s =
      {
        name;
        start;
        duration = Float.max 0.0 duration;
        rid;
        dom = (Domain.self () :> int);
        args;
        children = [];
      }
    in
    attach (Domain.DLS.get stack_key) s
  end

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)

let sample_n = Atomic.make 0

let sample_counter = Atomic.make 0

let set_sample_interval n =
  Atomic.set sample_n (max 0 n);
  Atomic.set sample_counter 0

let sample_interval () = Atomic.get sample_n

let sampled () =
  let n = Atomic.get sample_n in
  n > 0 && Atomic.fetch_and_add sample_counter 1 mod n = 0

let install_from_env () =
  match Sys.getenv_opt "EXTRACT_TRACE_SAMPLE" with
  | None -> ()
  | Some v -> (
    let v = String.trim v in
    let tail =
      match String.index_opt v '/' with
      | Some i -> String.sub v (i + 1) (String.length v - i - 1)
      | None -> v
    in
    match int_of_string_opt (String.trim tail) with
    | Some n when n > 0 -> set_sample_interval n
    | _ -> ())

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_duration s =
  let ns = s *. 1e9 in
  if Float.is_nan ns || ns < 0.0 then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let render spans =
  let buf = Buffer.create 256 in
  let rec go depth s =
    let args =
      match s.args with
      | [] -> ""
      | kvs ->
        "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ "}"
    in
    let label =
      String.make (2 * depth) ' '
      ^ s.name
      ^ args
      ^ (match s.rid with Some rid -> " [" ^ rid ^ "]" | None -> "")
    in
    let pad = max 1 (44 - String.length label) in
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s\n" label (String.make pad ' ') (pp_duration s.duration));
    List.iter (go (depth + 1)) s.children
  in
  List.iter (go 0) spans;
  Buffer.contents buf
