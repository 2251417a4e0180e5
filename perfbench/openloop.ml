(* Open-loop HTTP/1.1 load over a few keep-alive connections, driven
   from one thread with [Unix.select].

   Every request has a due time fixed before the phase starts. A request
   is sent as soon as it is due and its lane's connection is idle; while
   the connection is busy it waits in the lane's backlog. Latency runs
   from the due time to the last byte of the response, so queueing in
   the backlog counts against the server, as it would for a user. The
   generator's own lateness (time between a request becoming sendable
   and being sent) is recorded separately: when it is large the
   generator, not the server, set the pace, and the phase is marked
   invalid. *)

type request = {
  due : float; (* seconds after the phase start *)
  meth : string;
  target : string;
  body : string;
  lane : int; (* which connection carries it *)
  expect : string; (* a correct response body starts with this *)
  keep_body : bool; (* keep the body for the answer oracle *)
}

type outcome = {
  mutable sent : float; (* absolute clock *)
  mutable finished : float;
  mutable status : int; (* 0: transport error or timeout; -1: never sent *)
  mutable body : string option;
  mutable prefix_ok : bool;
  mutable late : float; (* generator lateness, seconds *)
}

type result = {
  start : float;
  outcomes : outcome array;
  backlog_max : int;
  backlog_end : int; (* unsent requests when the last one fell due *)
}

let now = Unix.gettimeofday

let response_timeout = 15.

(* ------------------------------------------------------------------ *)
(* Connections *)

type conn = {
  port : int;
  lane : int;
  mutable fd : Unix.file_descr option;
  buf : Buffer.t;
  head : (int * int * int * bool) option ref;
  mutable inflight : int option;
  mutable free_since : float;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    fd
  | exception e ->
    Unix.close fd;
    raise e

let close_conn c =
  (match c.fd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
  c.fd <- None;
  c.head := None;
  Buffer.clear c.buf

let rec write_all fd s off len =
  if len > 0 then begin
    let k = Unix.write_substring fd s off len in
    write_all fd s (off + k) (len - k)
  end

let request_bytes r =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s" r.meth
    r.target (String.length r.body) r.body

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let find_crlf2 s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then Some i
    else go (i + 1)
  in
  go 0

(* The head of a response in [s], once complete: (status, offset of the
   body, body length, connection-close). *)
let parse_head s =
  match find_crlf2 s with
  | None -> None
  | Some hend ->
    let lines = String.split_on_char '\n' (String.sub s 0 hend) |> List.map String.trim in
    let status =
      match lines with
      | l :: _ -> (
        match String.split_on_char ' ' l with
        | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
        | _ -> 0)
      | [] -> 0
    in
    let header name =
      List.find_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i when String.lowercase_ascii (String.sub l 0 i) = name ->
            Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> None)
        lines
    in
    let length =
      Option.value ~default:0 (Option.bind (header "content-length") int_of_string_opt)
    in
    let close =
      match header "connection" with
      | Some v -> String.lowercase_ascii v = "close"
      | None -> false
    in
    Some (status, hend + 4, length, close)

(* Once all of the body is in [buf] ([head] caches the parsed head
   between reads): (status, the body's first [keep] bytes, close). The
   body is copied out only as far as the caller keeps it: a run moves
   hundreds of megabytes of pages, and copying them all would put the
   generator's own GC into the latencies it measures. *)
let take_response ?(keep = max_int) buf head =
  (match !head with
  | None -> head := parse_head (Buffer.contents buf)
  | Some _ -> ());
  match !head with
  | Some (status, off, len, close) when Buffer.length buf >= off + len ->
    head := None;
    let body = Buffer.sub buf off (min len keep) in
    Buffer.clear buf;
    Some (status, body, close)
  | _ -> None

(* One blocking request on a fresh connection: /readyz polls, /metrics
   scrapes, warm-up. Raises on transport errors. *)
let fetch port target =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let req =
        { due = 0.; meth = "GET"; target; body = ""; lane = 0; expect = ""; keep_body = true }
      in
      let s = request_bytes req in
      write_all fd s 0 (String.length s);
      let buf = Buffer.create 4096 and head = ref None in
      let chunk = Bytes.create 65536 in
      let rec loop () =
        match take_response buf head with
        | Some (status, body, _) -> status, body
        | None ->
          let k = Unix.read fd chunk 0 (Bytes.length chunk) in
          if k = 0 then failwith ("connection closed before the response to " ^ target);
          Buffer.add_subbytes buf chunk 0 k;
          loop ()
      in
      loop ())

(* ------------------------------------------------------------------ *)
(* The schedule runner *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [classes.(i)] is the request lane connection [i] serves; several
   connections may serve one lane. With [stop_after], requests not sent
   [stop_after] seconds into the phase are dropped (status -1) and the
   phase ends when the ones in flight complete. *)
let run ?(stop_after = infinity) ~port ~classes (reqs : request array) =
  let n = Array.length reqs in
  let out =
    Array.init n (fun _ ->
        { sent = 0.; finished = 0.; status = 0; body = None; prefix_ok = false; late = 0. })
  in
  let start = now () +. 0.005 in
  let lanes = Array.fold_left max 0 classes + 1 in
  let conns =
    Array.map (fun lane ->
        { port; lane; fd = None; buf = Buffer.create 65536; head = ref None; inflight = None; free_since = start })
      classes
  in
  let queues = Array.init lanes (fun _ -> Queue.create ()) in
  let next = ref 0 and completed = ref 0 and backlog_max = ref 0 in
  let backlog_end = ref (-1) in
  let chunk = Bytes.create 65536 in
  let finish c i ~status ~body =
    let o = out.(i) in
    o.finished <- now ();
    o.status <- status;
    o.prefix_ok <- starts_with ~prefix:reqs.(i).expect body;
    if reqs.(i).keep_body then o.body <- Some body;
    c.inflight <- None;
    c.free_since <- o.finished;
    incr completed
  in
  let fail c i =
    close_conn c;
    finish c i ~status:0 ~body:""
  in
  let send c i =
    let t = now () in
    let o = out.(i) in
    o.sent <- t;
    o.late <- t -. Float.max (start +. reqs.(i).due) c.free_since;
    c.inflight <- Some i;
    match
      let fd =
        match c.fd with
        | Some fd -> fd
        | None ->
          let fd = connect port in
          c.fd <- Some fd;
          fd
      in
      let s = request_bytes reqs.(i) in
      write_all fd s 0 (String.length s)
    with
    | () -> ()
    | exception (Unix.Unix_error _ | Failure _) -> fail c i
  in
  let on_readable c =
    match c.inflight, c.fd with
    | Some i, Some fd -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> fail c i
      | k -> (
        Buffer.add_subbytes c.buf chunk 0 k;
        let keep = if reqs.(i).keep_body then max_int else String.length reqs.(i).expect in
        match take_response ~keep c.buf c.head with
        | None -> ()
        | Some (status, body, close) ->
          if close then close_conn c;
          finish c i ~status ~body)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> fail c i)
    | _ -> ()
  in
  let dropped = ref 0 in
  let drop i =
    out.(i).status <- -1;
    incr dropped
  in
  while !completed + !dropped < n do
    let t = now () in
    if t -. start >= stop_after then begin
      Array.iter (fun q -> Queue.iter drop q; Queue.clear q) queues;
      while !next < n do
        drop !next;
        incr next
      done
    end;
    while !next < n && start +. reqs.(!next).due <= t do
      Queue.push !next queues.(reqs.(!next).lane mod lanes);
      incr next
    done;
    Array.iter
      (fun c ->
        if c.inflight = None && not (Queue.is_empty queues.(c.lane)) then
          send c (Queue.pop queues.(c.lane)))
      conns;
    let backlog = Array.fold_left (fun acc q -> acc + Queue.length q) 0 queues in
    if backlog > !backlog_max then backlog_max := backlog;
    if !next = n && !backlog_end < 0 then backlog_end := backlog;
    (* a response that never comes is a failure, not a hang *)
    Array.iter
      (fun c ->
        match c.inflight with
        | Some i when t -. out.(i).sent > response_timeout -> fail c i
        | _ -> ())
      conns;
    let busy =
      Array.to_list conns
      |> List.filter_map (fun c -> match c.inflight, c.fd with Some _, Some fd -> Some fd | _ -> None)
    in
    let wait =
      if !next < n then Float.max 0. (start +. reqs.(!next).due -. now ()) else 0.05
    in
    if busy <> [] || wait > 0. then begin
      match Unix.select busy [] [] wait with
      | readable, _, _ ->
        Array.iter
          (fun c ->
            match c.fd with
            | Some fd when c.inflight <> None && List.mem fd readable -> on_readable c
            | _ -> ())
          conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  Array.iter close_conn conns;
  {
    start;
    outcomes = out;
    backlog_max = !backlog_max;
    backlog_end = max 0 !backlog_end;
  }

let ok (o : outcome) = o.status = 200 && o.prefix_ok

(* Latency in ms of each request, from its due time; a failed request
   counts as missing every limit. *)
let latencies_ms res (reqs : request array) =
  Array.mapi
    (fun i o ->
      if ok o then (o.finished -. (res.start +. reqs.(i).due)) *. 1000. else infinity)
    res.outcomes
