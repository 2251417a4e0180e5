(* Multi-core serving tests: the sharded caches, HTTP/1.1 keep-alive and
   conformance of the rewritten transport, the domain-pool server's
   resilience (slowloris, vanished clients, accept-queue overflow), and
   the concurrency safety of the observability primitives the workers
   share (Reqid, Slowlog). *)

module Demo_server = Extract_server.Demo_server
module Corpus = Extract_snippet.Corpus
module Pipeline = Extract_snippet.Pipeline
module Document = Extract_store.Document
module Lru = Extract_util.Lru
module Sharded_lru = Extract_util.Sharded_lru
module Prng = Extract_util.Prng
module Reqid = Extract_obs.Reqid
module Slowlog = Extract_obs.Slowlog
module Jsonv = Extract_obs.Jsonv

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let contains_substring hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec loop i = i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1)) in
  ln = 0 || loop 0

(* ------------------------------------------------------------------ *)
(* Sharded_lru *)

let test_sharded_basics () =
  let c = Sharded_lru.create ~shards:8 ~capacity:64 () in
  check int "eight shards at capacity 64" 8 (Sharded_lru.shards c);
  check bool "capacity at least requested" true (Sharded_lru.capacity c >= 64);
  (* eight entries never exceed any single shard's capacity, so none can
     be evicted however the keys hash *)
  for i = 0 to 7 do
    Sharded_lru.put c i (i * i)
  done;
  check int "eight entries" 8 (Sharded_lru.length c);
  for i = 0 to 7 do
    check bool "find" true (Sharded_lru.find c i = Some (i * i))
  done;
  check bool "miss" true (Sharded_lru.find c 999 = None);
  let hits, misses = Sharded_lru.stats c in
  check int "hits" 8 hits;
  check int "misses" 1 misses;
  (* overfill: length stays bounded and the eviction counter moves *)
  for i = 0 to 199 do
    Sharded_lru.put c i i
  done;
  check bool "length bounded by capacity" true
    (Sharded_lru.length c <= Sharded_lru.capacity c);
  check bool "evictions counted" true (Sharded_lru.evictions c > 0)

let test_sharded_shard_clamp () =
  (* tiny caches must not be striped into collision-evicting sievelets *)
  check int "capacity 8 -> one shard" 1 (Sharded_lru.shards (Sharded_lru.create ~capacity:8 ()));
  check int "capacity 15 -> one shard" 1
    (Sharded_lru.shards (Sharded_lru.create ~capacity:15 ()));
  check int "capacity 16 -> two shards" 2
    (Sharded_lru.shards (Sharded_lru.create ~capacity:16 ()));
  check int "explicit shards still clamped" 2
    (Sharded_lru.shards (Sharded_lru.create ~shards:16 ~capacity:16 ()));
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Sharded_lru.create: capacity must be positive") (fun () ->
      ignore (Sharded_lru.create ~capacity:0 ()));
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Sharded_lru.create: shards must be positive") (fun () ->
      ignore (Sharded_lru.create ~shards:0 ~capacity:8 ()))

let test_sharded_peek_mem_remove_clear () =
  let c = Sharded_lru.create ~capacity:32 () in
  Sharded_lru.put c "a" 1;
  check bool "peek hit" true (Sharded_lru.peek c "a" = Some 1);
  check bool "peek miss" true (Sharded_lru.peek c "b" = None);
  check bool "peek counts nothing" true (Sharded_lru.stats c = (0, 0));
  check bool "mem" true (Sharded_lru.mem c "a");
  Sharded_lru.remove c "a";
  check bool "removed" false (Sharded_lru.mem c "a");
  Sharded_lru.put c "x" 9;
  ignore (Sharded_lru.find c "x");
  Sharded_lru.clear c;
  check int "cleared" 0 (Sharded_lru.length c);
  check bool "stats reset" true (Sharded_lru.stats c = (0, 0))

let test_sharded_shard_stats_sum () =
  let c = Sharded_lru.create ~shards:4 ~capacity:64 () in
  for i = 0 to 99 do
    Sharded_lru.put c i i
  done;
  for i = 0 to 29 do
    ignore (Sharded_lru.find c i)
  done;
  ignore (Sharded_lru.find c 1000);
  let stats = Sharded_lru.shard_stats c in
  check int "one entry per shard" (Sharded_lru.shards c) (Array.length stats);
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  let hits, misses = Sharded_lru.stats c in
  check int "shard hits sum to total" hits (sum (fun s -> s.Sharded_lru.hits));
  check int "shard misses sum to total" misses (sum (fun s -> s.Sharded_lru.misses));
  check int "shard entries sum to length" (Sharded_lru.length c)
    (sum (fun s -> s.Sharded_lru.entries));
  check int "shard evictions sum to total" (Sharded_lru.evictions c)
    (sum (fun s -> s.Sharded_lru.evictions));
  check int "shard capacities sum to capacity" (Sharded_lru.capacity c)
    (sum (fun s -> s.Sharded_lru.capacity))

let test_sharded_domain_hammer () =
  (* four domains over one cache: no crash, no torn values, counters add
     up — every value ever stored for key k is k * 7, so any find must
     observe exactly that or nothing *)
  let c = Sharded_lru.create ~shards:8 ~capacity:128 () in
  let iterations = 20_000 in
  let worker seed () =
    let rng = Prng.create seed in
    let finds = ref 0 in
    for _ = 1 to iterations do
      let k = Prng.int rng 200 in
      if Prng.bool rng then Sharded_lru.put c k (k * 7)
      else begin
        incr finds;
        match Sharded_lru.find c k with
        | None -> ()
        | Some v -> if v <> k * 7 then Alcotest.failf "torn value for key %d: %d" k v
      end
    done;
    !finds
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker (100 + i))) in
  let total_finds = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  let hits, misses = Sharded_lru.stats c in
  check int "every find counted exactly once" total_finds (hits + misses);
  check bool "length within capacity" true
    (Sharded_lru.length c <= Sharded_lru.capacity c)

(* ------------------------------------------------------------------ *)
(* Lru.peek *)

let test_lru_peek_does_not_promote () =
  let c = Lru.create ~capacity:2 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  (* a peek must not refresh "a": inserting "c" evicts it anyway *)
  check bool "peek sees a" true (Lru.peek c "a" = Some 1);
  check bool "peek counts nothing" true (Lru.stats c = (0, 0));
  Lru.put c "c" 3;
  check bool "a evicted despite peek" true (Lru.peek c "a" = None);
  check bool "b survived" true (Lru.peek c "b" = Some 2);
  (* contrast: a find does refresh *)
  ignore (Lru.find c "b");
  Lru.put c "d" 4;
  check bool "c evicted, b kept by find" true
    (Lru.peek c "c" = None && Lru.peek c "b" = Some 2)

(* ------------------------------------------------------------------ *)
(* Transport fixtures *)

let server () =
  let db =
    Pipeline.build (Document.of_document (Extract_datagen.Paper_example.document ()))
  in
  Demo_server.create (Corpus.of_list [ "paper", db ])

let quiet_config = { Demo_server.default_config with Demo_server.log = ignore }

let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let connect port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  sock

(* Read exactly one response off a (possibly keep-alive) connection:
   headers byte-wise to the blank line, then Content-Length body bytes. *)
let recv_response fd =
  let head = Buffer.create 256 in
  let byte = Bytes.create 1 in
  let rec read_head () =
    if Unix.read fd byte 0 1 <> 1 then Alcotest.fail "eof before end of headers";
    Buffer.add_char head (Bytes.get byte 0);
    let n = Buffer.length head in
    if n < 4 || Buffer.sub head (n - 4) 4 <> "\r\n\r\n" then read_head ()
  in
  read_head ();
  let head = Buffer.contents head in
  let content_length =
    let lower = String.lowercase_ascii head in
    let key = "content-length:" in
    match
      let rec find i =
        if i + String.length key > String.length lower then None
        else if String.sub lower i (String.length key) = key then
          Some (i + String.length key)
        else find (i + 1)
      in
      find 0
    with
    | None -> Alcotest.failf "no Content-Length in %S" head
    | Some start ->
      let stop = String.index_from lower start '\r' in
      (match int_of_string_opt (String.trim (String.sub head start (stop - start))) with
      | Some n -> n
      | None -> Alcotest.failf "bad Content-Length in %S" head)
  in
  let body = Bytes.create content_length in
  let rec fill off =
    if off < content_length then begin
      let n = Unix.read fd body off (content_length - off) in
      if n = 0 then Alcotest.fail "eof inside body";
      fill (off + n)
    end
  in
  fill 0;
  head, Bytes.to_string body

let at_eof fd =
  let byte = Bytes.create 1 in
  match Unix.read fd byte 0 1 with
  | 0 -> true
  | _ -> false
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true

let with_pool ?(config = quiet_config) srv f =
  let listening = Demo_server.listen ~port:0 in
  let pool = Demo_server.start_pool ~config srv listening in
  Fun.protect
    ~finally:(fun () ->
      Demo_server.stop_pool pool;
      try Unix.close listening with Unix.Unix_error _ -> ())
    (fun () -> f (Demo_server.bound_port listening))

(* ------------------------------------------------------------------ *)
(* HTTP conformance: every error response names its framing *)

let test_error_responses_are_framed () =
  (* each case: provoke one error through a real socket and serve_once;
     the response must carry the status, a Content-Length and an explicit
     Connection: close — clients must never have to guess the framing of
     a failure *)
  let srv = server () in
  let config =
    { quiet_config with Demo_server.timeout_ms = 300; max_header_bytes = 256 }
  in
  let cases =
    [
      ( "empty request -> 400",
        "400",
        fun fd -> Unix.shutdown fd Unix.SHUTDOWN_SEND );
      ("junk method -> 400", "400", fun fd -> write_all fd "BREW /pot HTTP/1.1\r\n\r\n");
      ( "oversized headers -> 431",
        "431",
        fun fd ->
          write_all fd "GET / HTTP/1.1\r\n";
          write_all fd ("X-Filler: " ^ String.make 300 'x' ^ "\r\n\r\n") );
      ( "stalled request line -> 408",
        "408",
        fun fd -> write_all fd "GET /st" (* and never finish *) );
      ( "bad content-length -> 400",
        "400",
        fun fd -> write_all fd "GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n" );
    ]
  in
  List.iter
    (fun (name, status, provoke) ->
      let listening = Demo_server.listen ~port:0 in
      let port = Demo_server.bound_port listening in
      let client = connect port in
      provoke client;
      Demo_server.serve_once ~config srv listening;
      let head, _body = recv_response client in
      check bool (name ^ ": status") true (contains_substring head (" " ^ status ^ " "));
      check bool (name ^ ": explicit close") true
        (contains_substring head "Connection: close");
      check bool (name ^ ": connection closed") true (at_eof client);
      Unix.close client;
      Unix.close listening)
    cases

(* ------------------------------------------------------------------ *)
(* Keep-alive *)

let test_keepalive_two_requests () =
  let srv = server () in
  with_pool srv (fun port ->
      let fd = connect port in
      write_all fd "GET /stats?data=paper HTTP/1.1\r\nHost: x\r\n\r\n";
      let head1, body1 = recv_response fd in
      check bool "1.1 status echoed" true (contains_substring head1 "HTTP/1.1 200 OK");
      check bool "first response keeps alive" true
        (contains_substring head1 "Connection: keep-alive");
      check bool "stats body" true (contains_substring body1 "nodes");
      (* same socket, second request *)
      write_all fd "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
      let head2, body2 = recv_response fd in
      check bool "second request served on same connection" true
        (contains_substring head2 "HTTP/1.1 200 OK");
      check bool "home body" true (contains_substring body2 "eXtract");
      Unix.close fd)

let test_pipelined_requests () =
  let srv = server () in
  with_pool srv (fun port ->
      let fd = connect port in
      (* both requests in one write: the worker must frame and answer
         each in order *)
      write_all fd
        "GET /stats?data=paper HTTP/1.1\r\n\r\nGET /stats?data=paper HTTP/1.1\r\n\r\n";
      let head1, _ = recv_response fd in
      let head2, _ = recv_response fd in
      check bool "first pipelined ok" true (contains_substring head1 " 200 ");
      check bool "second pipelined ok" true (contains_substring head2 " 200 ");
      (* the first one carries a body to drain: the second request sits
         right behind it in the same read *)
      write_all fd
        "GET /stats?data=paper HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET / HTTP/1.1\r\n\r\n";
      let head3, _ = recv_response fd in
      let head4, body4 = recv_response fd in
      check bool "pipelined after a body ok" true (contains_substring head3 " 200 ");
      check bool "request behind the body answered" true
        (contains_substring head4 " 200 " && contains_substring body4 "eXtract");
      Unix.close fd)

(* The buffered reader frames requests however the bytes arrive: two
   pipelined requests (the first with a body to drain) split into two
   writes at every offset, and delivered one byte per write. *)
let test_request_split_at_every_offset () =
  let srv = server () in
  let payload =
    "GET /stats?data=paper HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody\
     GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
  in
  let exchange port writes =
    let fd = connect port in
    List.iteri
      (fun i part ->
        if i > 0 then Unix.sleepf 0.001;
        write_all fd part)
      writes;
    let head1, body1 = recv_response fd in
    let head2, body2 = recv_response fd in
    let closed = at_eof fd in
    Unix.close fd;
    contains_substring head1 " 200 " && contains_substring body1 "nodes"
    && contains_substring head2 " 200 " && contains_substring body2 "eXtract"
    && closed
  in
  with_pool srv (fun port ->
      for k = 1 to String.length payload - 1 do
        let parts = [ String.sub payload 0 k; String.sub payload k (String.length payload - k) ] in
        if not (exchange port parts) then Alcotest.failf "split at offset %d not served" k
      done;
      check bool "one byte per write" true
        (exchange port (List.init (String.length payload) (fun i -> String.make 1 payload.[i]))))

let test_connection_close_honored () =
  let srv = server () in
  with_pool srv (fun port ->
      let fd = connect port in
      write_all fd "GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
      let head, _ = recv_response fd in
      check bool "close echoed" true (contains_substring head "Connection: close");
      check bool "server closed" true (at_eof fd);
      Unix.close fd)

let test_http10_defaults_to_close () =
  let srv = server () in
  with_pool srv (fun port ->
      let fd = connect port in
      write_all fd "GET / HTTP/1.0\r\n\r\n";
      let head, _ = recv_response fd in
      check bool "1.0 status echoed" true (contains_substring head "HTTP/1.0 200 OK");
      check bool "1.0 closes by default" true (contains_substring head "Connection: close");
      check bool "server closed" true (at_eof fd);
      Unix.close fd)

let test_http10_keepalive_token_honored () =
  let srv = server () in
  with_pool srv (fun port ->
      let fd = connect port in
      write_all fd "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
      let head, _ = recv_response fd in
      check bool "1.0 + keep-alive stays open" true
        (contains_substring head "Connection: keep-alive");
      write_all fd "GET / HTTP/1.0\r\nConnection: close\r\n\r\n";
      let head2, _ = recv_response fd in
      check bool "second served" true (contains_substring head2 " 200 ");
      Unix.close fd)

let test_max_requests_per_conn () =
  let srv = server () in
  let config = { quiet_config with Demo_server.max_requests_per_conn = 2 } in
  with_pool ~config srv (fun port ->
      let fd = connect port in
      write_all fd "GET / HTTP/1.1\r\n\r\n";
      let head1, _ = recv_response fd in
      check bool "first of two keeps alive" true
        (contains_substring head1 "Connection: keep-alive");
      write_all fd "GET / HTTP/1.1\r\n\r\n";
      let head2, _ = recv_response fd in
      check bool "request cap reached: close" true
        (contains_substring head2 "Connection: close");
      check bool "server closed at cap" true (at_eof fd);
      Unix.close fd)

let test_error_closes_keepalive_connection () =
  let srv = server () in
  with_pool srv (fun port ->
      let fd = connect port in
      write_all fd "GET /missing HTTP/1.1\r\n\r\n";
      let head, _ = recv_response fd in
      check bool "404 on 1.1" true (contains_substring head "HTTP/1.1 404");
      check bool "error closes despite 1.1" true
        (contains_substring head "Connection: close");
      check bool "server closed" true (at_eof fd);
      Unix.close fd)

(* ------------------------------------------------------------------ *)
(* Pool resilience *)

let test_pool_serves_concurrent_connections () =
  let srv = server () in
  let config = { quiet_config with Demo_server.workers = 4 } in
  with_pool ~config srv (fun port ->
      let clients = List.init 8 (fun _ -> connect port) in
      List.iter (fun fd -> write_all fd "GET /stats?data=paper HTTP/1.1\r\n\r\n") clients;
      List.iter
        (fun fd ->
          let head, _ = recv_response fd in
          check bool "every concurrent client served" true
            (contains_substring head " 200 "))
        clients;
      List.iter Unix.close clients)

let test_pool_slowloris_does_not_block_others () =
  let srv = server () in
  let config = { quiet_config with Demo_server.workers = 4; timeout_ms = 2_000 } in
  with_pool ~config srv (fun port ->
      (* one client stalls mid-request-line, pinning at most one worker *)
      let slow = connect port in
      write_all slow "GET /st";
      Unix.sleepf 0.05;
      (* the other workers keep serving while the slow one is pinned *)
      let ok = connect port in
      write_all ok "GET /stats?data=paper HTTP/1.1\r\n\r\n";
      let head, _ = recv_response ok in
      check bool "healthy client served while slowloris stalls" true
        (contains_substring head " 200 ");
      Unix.close ok;
      Unix.close slow)

let test_pool_survives_vanished_client () =
  let srv = server () in
  let config = { quiet_config with Demo_server.workers = 2 } in
  with_pool ~config srv (fun port ->
      (* a client that connects and leaves immediately must cost nothing *)
      let ghost = connect port in
      Unix.close ghost;
      Unix.sleepf 0.05;
      let ok = connect port in
      write_all ok "GET / HTTP/1.1\r\n\r\n";
      let head, _ = recv_response ok in
      check bool "served after ghost client" true (contains_substring head " 200 ");
      Unix.close ok)

let test_accept_queue_overflow_sheds_503 () =
  let srv = server () in
  let config =
    { quiet_config with Demo_server.workers = 1; queue_depth = 1; timeout_ms = 3_000 }
  in
  with_pool ~config srv (fun port ->
      (* pin the single worker with a stalled connection ... *)
      let pinned = connect port in
      write_all pinned "GET /st";
      Unix.sleepf 0.2;
      (* ... fill the 1-deep queue ... *)
      let queued = connect port in
      Unix.sleepf 0.1;
      (* ... so the next connection must be shed by the acceptor *)
      let shed = connect port in
      let head, body = recv_response shed in
      check bool "queue overflow -> 503" true (contains_substring head " 503 ");
      check bool "shed carries Retry-After" true
        (contains_substring head "Retry-After: 1");
      check bool "shed is framed" true (contains_substring head "Content-Length:");
      check bool "shed closes" true (contains_substring head "Connection: close");
      check bool "shed names the queue" true (contains_substring body "accept queue");
      Unix.close shed;
      Unix.close queued;
      Unix.close pinned)

let test_pool_deadline_sheds_search () =
  let srv = server () in
  let config =
    { quiet_config with Demo_server.workers = 2; deadline_ms = Some 0 }
  in
  with_pool ~config srv (fun port ->
      let fd = connect port in
      write_all fd "GET /search?data=paper&q=store+texas HTTP/1.1\r\n\r\n";
      let head, _ = recv_response fd in
      check bool "spent budget -> 503" true (contains_substring head " 503 ");
      check bool "503 closes" true (contains_substring head "Connection: close");
      Unix.close fd;
      (* the deadline sheds requests, not the server: home stays up *)
      let ok = connect port in
      write_all ok "GET / HTTP/1.1\r\n\r\n";
      let head2, _ = recv_response ok in
      check bool "home unaffected by deadline" true (contains_substring head2 " 200 ");
      Unix.close ok)

(* ------------------------------------------------------------------ *)
(* Health surface: /healthz liveness, /readyz readiness transitions *)

let test_health_endpoints_before_serving () =
  let srv = server () in
  let r = Demo_server.handle srv "/healthz" in
  check int "healthz is liveness: 200 even before serving" 200 r.Demo_server.status;
  let r = Demo_server.handle srv "/readyz" in
  check int "readyz 503 before any pool starts" 503 r.Demo_server.status;
  check bool "not-ready carries Retry-After" true
    (List.mem_assoc "Retry-After" r.Demo_server.headers);
  check bool "serving component blamed" true
    (contains_substring r.Demo_server.body "\"serving\": false");
  Demo_server.mark_ready srv;
  let r = Demo_server.handle srv "/readyz" in
  check int "readyz 200 once serving" 200 r.Demo_server.status;
  check bool "body reports ready" true
    (contains_substring r.Demo_server.body "\"ready\": true")

let test_readyz_reflects_queue_saturation () =
  let srv = server () in
  let config =
    { quiet_config with Demo_server.workers = 1; queue_depth = 1; timeout_ms = 3_000 }
  in
  with_pool ~config srv (fun port ->
      (* once the pool accepts, readiness is green over the wire *)
      let fd = connect port in
      write_all fd "GET /readyz HTTP/1.1\r\n\r\n";
      let head, body = recv_response fd in
      check bool "readyz 200 once the pool accepts" true (contains_substring head " 200 ");
      check bool "wire body reports ready" true
        (contains_substring body "\"ready\": true");
      Unix.close fd;
      (* pin the single worker and fill the 1-deep queue: the readiness
         probe must go red before the acceptor even starts shedding *)
      let pinned = connect port in
      write_all pinned "GET /st";
      Unix.sleepf 0.2;
      let queued = connect port in
      Unix.sleepf 0.1;
      let r = Demo_server.handle srv "/readyz" in
      check int "queue at shed threshold -> 503" 503 r.Demo_server.status;
      check bool "accept_queue component blamed" true
        (contains_substring r.Demo_server.body "\"accept_queue\": false");
      Unix.close queued;
      Unix.close pinned)

(* Per-request sampling: a sampled request records an http.request root
   carrying a rid and the synthetic queue.wait child measuring how long
   the connection sat in the accept queue. *)
let test_request_span_sampled_with_queue_wait () =
  let module Trace = Extract_obs.Trace in
  let srv = server () in
  Trace.clear ();
  Trace.set_sample_interval 1;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_sample_interval 0;
      Trace.clear ())
    (fun () ->
      let r = Demo_server.handle_request ~queue_wait:0.002 srv "/stats?data=paper" in
      check int "sampled request served" 200 r.Demo_server.status;
      match Trace.finished () with
      | [ root ] ->
        check Alcotest.string "root is the request span" "http.request"
          root.Extract_obs.Trace.name;
        check bool "request span carries a rid" true (root.Extract_obs.Trace.rid <> None);
        (match
           List.filter
             (fun s -> s.Extract_obs.Trace.name = "queue.wait")
             root.Extract_obs.Trace.children
         with
        | [ w ] ->
          check bool "queue wait measured" true (w.Extract_obs.Trace.duration > 0.)
        | l -> Alcotest.failf "expected one queue.wait child, got %d" (List.length l))
      | roots -> Alcotest.failf "expected one sampled root, got %d" (List.length roots))

(* ------------------------------------------------------------------ *)
(* Reqid + Slowlog under domains *)

let test_reqid_slowlog_concurrent () =
  (* four domains allocate ids and record slowlog entries concurrently:
     ids must stay unique, entries must come out intact (rid = query
     proves no torn entry) and none may be lost *)
  let per_domain = 200 in
  Slowlog.reset ();
  Slowlog.configure ~slowest:8 ~ring:1024 ();
  let worker d () =
    Array.init per_domain (fun i ->
        Reqid.ensure (fun rid ->
            Slowlog.record
              {
                Slowlog.rid;
                query = rid;
                seconds = float_of_int (d + i) /. 1e6;
                degraded = 1 (* degraded entries are always ring-retained *);
                faulted = false;
                digest = Jsonv.Null;
              };
            rid))
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  let rids = List.concat_map (fun d -> Array.to_list (Domain.join d)) domains in
  let unique = List.sort_uniq String.compare rids in
  check int "every rid unique across domains" (4 * per_domain) (List.length unique);
  let _slowest, ring = Slowlog.snapshot () in
  check int "no entry lost" (4 * per_domain) (List.length ring);
  List.iter
    (fun (e : Slowlog.entry) ->
      if e.Slowlog.rid <> e.Slowlog.query then
        Alcotest.failf "torn slowlog entry: rid %S query %S" e.Slowlog.rid e.Slowlog.query;
      if not (List.mem e.Slowlog.rid unique) then
        Alcotest.failf "foreign rid in ring: %S" e.Slowlog.rid)
    ring;
  Slowlog.configure ~slowest:16 ~ring:64 ();
  Slowlog.reset ()

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "pool.sharded_lru",
      [
        Alcotest.test_case "basics" `Quick test_sharded_basics;
        Alcotest.test_case "shard clamp" `Quick test_sharded_shard_clamp;
        Alcotest.test_case "peek mem remove clear" `Quick test_sharded_peek_mem_remove_clear;
        Alcotest.test_case "shard stats sum" `Quick test_sharded_shard_stats_sum;
        Alcotest.test_case "four-domain hammer" `Quick test_sharded_domain_hammer;
      ] );
    ( "pool.lru_peek",
      [ Alcotest.test_case "peek does not promote" `Quick test_lru_peek_does_not_promote ] );
    ( "pool.conformance",
      [ Alcotest.test_case "errors framed and closed" `Quick test_error_responses_are_framed ] );
    ( "pool.keepalive",
      [
        Alcotest.test_case "two requests, one connection" `Quick test_keepalive_two_requests;
        Alcotest.test_case "pipelined pair" `Quick test_pipelined_requests;
        Alcotest.test_case "split at every offset" `Quick test_request_split_at_every_offset;
        Alcotest.test_case "connection: close honored" `Quick test_connection_close_honored;
        Alcotest.test_case "http/1.0 closes by default" `Quick test_http10_defaults_to_close;
        Alcotest.test_case "http/1.0 keep-alive token" `Quick
          test_http10_keepalive_token_honored;
        Alcotest.test_case "request cap closes" `Quick test_max_requests_per_conn;
        Alcotest.test_case "errors close keep-alive" `Quick
          test_error_closes_keepalive_connection;
      ] );
    ( "pool.resilience",
      [
        Alcotest.test_case "concurrent connections" `Quick
          test_pool_serves_concurrent_connections;
        Alcotest.test_case "slowloris isolation" `Quick
          test_pool_slowloris_does_not_block_others;
        Alcotest.test_case "vanished client" `Quick test_pool_survives_vanished_client;
        Alcotest.test_case "queue overflow sheds 503" `Quick
          test_accept_queue_overflow_sheds_503;
        Alcotest.test_case "deadline sheds search" `Quick test_pool_deadline_sheds_search;
      ] );
    ( "pool.health",
      [
        Alcotest.test_case "readiness latch transitions" `Quick
          test_health_endpoints_before_serving;
        Alcotest.test_case "queue saturation turns readyz red" `Quick
          test_readyz_reflects_queue_saturation;
        Alcotest.test_case "sampled request span + queue wait" `Quick
          test_request_span_sampled_with_queue_wait;
      ] );
    ( "pool.obs_concurrency",
      [ Alcotest.test_case "reqid + slowlog, four domains" `Quick test_reqid_slowlog_concurrent ] );
  ]
