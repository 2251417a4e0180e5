(* Tests for the LRU cache, the demo HTTP server (pure handler and socket
   round trip) and the courses dataset. *)

module Lru = Extract_util.Lru
module Demo_server = Extract_server.Demo_server
module Corpus = Extract_snippet.Corpus
module Pipeline = Extract_snippet.Pipeline
module Document = Extract_store.Document

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let contains_substring hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec loop i = i + ln <= lh && (String.sub hay i ln = needle || loop (i + 1)) in
  ln = 0 || loop 0

(* ------------------------------------------------------------------ *)
(* LRU *)

let test_lru_basic () =
  let c = Lru.create ~capacity:2 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  check bool "find a" true (Lru.find c "a" = Some 1);
  check bool "find b" true (Lru.find c "b" = Some 2);
  check int "length" 2 (Lru.length c);
  check int "capacity" 2 (Lru.capacity c)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  (* touch a so b is the LRU *)
  ignore (Lru.find c "a");
  Lru.put c "c" 3;
  check bool "b evicted" true (Lru.find c "b" = None);
  check bool "a kept" true (Lru.find c "a" = Some 1);
  check bool "c kept" true (Lru.find c "c" = Some 3)

let test_lru_evictions_counted () =
  let c = Lru.create ~capacity:2 in
  check int "fresh cache, no evictions" 0 (Lru.evictions c);
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "c" 3;
  Lru.put c "d" 4;
  check int "two capacity evictions" 2 (Lru.evictions c);
  Lru.remove c "c";
  check int "remove is not an eviction" 2 (Lru.evictions c);
  Lru.clear c;
  check int "clear resets the counter" 0 (Lru.evictions c)

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  Lru.put c "a" 1;
  Lru.put c "a" 9;
  check bool "replaced" true (Lru.find c "a" = Some 9);
  check int "no growth" 1 (Lru.length c)

let test_lru_find_or_add () =
  let c = Lru.create ~capacity:4 in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  check int "first computes" 42 (Lru.find_or_add c "k" compute);
  check int "second cached" 42 (Lru.find_or_add c "k" compute);
  check int "one computation" 1 !calls;
  let hits, misses = Lru.stats c in
  check int "hits" 1 hits;
  check int "misses" 1 misses

let test_lru_remove_clear () =
  let c = Lru.create ~capacity:4 in
  Lru.put c 1 "x";
  Lru.put c 2 "y";
  Lru.remove c 1;
  check bool "removed" true (Lru.find c 1 = None);
  Lru.clear c;
  check int "cleared" 0 (Lru.length c)

let test_lru_capacity_one () =
  let c = Lru.create ~capacity:1 in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  check bool "only latest" true (Lru.find c "a" = None && Lru.find c "b" = Some 2);
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Lru.create: capacity must be positive") (fun () ->
      ignore (Lru.create ~capacity:0))

let test_lru_stress_against_model () =
  (* random ops vs a naive model *)
  let rng = Extract_util.Prng.create 55 in
  let cap = 8 in
  let c = Lru.create ~capacity:cap in
  let model = ref [] in (* (key, value), most recent first *)
  for _ = 1 to 2000 do
    let key = Extract_util.Prng.int rng 20 in
    if Extract_util.Prng.bool rng then begin
      let v = Extract_util.Prng.int rng 1000 in
      Lru.put c key v;
      model := (key, v) :: List.remove_assoc key !model;
      if List.length !model > cap then
        model := List.filteri (fun i _ -> i < cap) !model
    end
    else begin
      let got = Lru.find c key in
      let expected = List.assoc_opt key !model in
      if got <> expected then
        Alcotest.failf "model mismatch on key %d: cache %s, model %s" key
          (match got with Some v -> string_of_int v | None -> "-")
          (match expected with Some v -> string_of_int v | None -> "-");
      (* a hit refreshes recency in both *)
      match expected with
      | Some v -> model := (key, v) :: List.remove_assoc key !model
      | None -> ()
    end
  done

(* ------------------------------------------------------------------ *)
(* Server: URL parsing *)

let test_url_decode () =
  check string "plus" "store texas" (Demo_server.url_decode "store+texas");
  check string "percent" "a&b=c" (Demo_server.url_decode "a%26b%3Dc");
  check string "utf8" "caf\xc3\xa9" (Demo_server.url_decode "caf%C3%A9");
  check string "broken escape kept" "100%" (Demo_server.url_decode "100%");
  check string "broken hex kept" "%zz!" (Demo_server.url_decode "%zz!")

let test_parse_target () =
  let path, params = Demo_server.parse_target "/search?data=retail&q=store+texas&bound=6" in
  check string "path" "/search" path;
  check bool "params" true
    (params = [ "data", "retail"; "q", "store texas"; "bound", "6" ]);
  let path2, params2 = Demo_server.parse_target "/" in
  check string "bare path" "/" path2;
  check int "no params" 0 (List.length params2)

(* ------------------------------------------------------------------ *)
(* Server: handler *)

let server () =
  let db =
    Pipeline.build (Document.of_document (Extract_datagen.Paper_example.document ()))
  in
  Demo_server.create (Corpus.of_list [ "paper", db ])

let test_handle_home () =
  let s = server () in
  let r = Demo_server.handle s "/" in
  check int "200" 200 r.Demo_server.status;
  check bool "lists data set" true (contains_substring r.Demo_server.body "paper")

let test_handle_search () =
  let s = server () in
  let r = Demo_server.handle s "/search?data=paper&q=store+texas&bound=6" in
  check int "200" 200 r.Demo_server.status;
  check bool "html" true (contains_substring r.Demo_server.content_type "text/html");
  check bool "snippet markup" true (contains_substring r.Demo_server.body "class=\"snippet\"");
  check bool "a store name shows" true (contains_substring r.Demo_server.body "Galleria")

let test_handle_search_caches () =
  let s = server () in
  let target = "/search?data=paper&q=store+texas&bound=6" in
  let a = Demo_server.handle s target in
  let b = Demo_server.handle s target in
  check bool "same body" true (a.Demo_server.body = b.Demo_server.body);
  let hits, _ = Demo_server.cache_stats s in
  check int "second was a cache hit" 1 hits

let test_handle_complete () =
  let s = server () in
  let r = Demo_server.handle s "/complete?data=paper&prefix=hou" in
  check int "200" 200 r.Demo_server.status;
  check bool "houston suggested" true (contains_substring r.Demo_server.body "houston")

let test_handle_stats () =
  let s = server () in
  let r = Demo_server.handle s "/stats?data=paper" in
  check int "200" 200 r.Demo_server.status;
  check bool "mentions nodes" true (contains_substring r.Demo_server.body "nodes")

let test_handle_metrics () =
  let s = server () in
  ignore (Demo_server.handle s "/search?data=paper&q=store+texas&bound=6");
  let r = Demo_server.handle s "/metrics" in
  check int "200" 200 r.Demo_server.status;
  check bool "prometheus content type" true
    (contains_substring r.Demo_server.content_type "text/plain");
  List.iter
    (fun family ->
      check bool (family ^ " exposed") true (contains_substring r.Demo_server.body family))
    [
      "extract_cache_hits_total";
      "extract_cache_misses_total";
      "extract_stage_duration_seconds_bucket";
      "extract_queries_total";
      "extract_degraded_snippets_total";
      "extract_http_responses_total";
      "extract_cache_entries";
    ]

let test_handle_stats_json () =
  let s = server () in
  let r = Demo_server.handle s "/stats?format=json&data=paper" in
  check int "200" 200 r.Demo_server.status;
  check bool "json content type" true
    (contains_substring r.Demo_server.content_type "application/json");
  List.iter
    (fun key -> check bool (key ^ " present") true (contains_substring r.Demo_server.body key))
    [ "\"caches\""; "\"page\""; "\"snippet\""; "\"degraded_served\""; "\"metrics\""; "\"nodes\"" ];
  let no_data = Demo_server.handle s "/stats?format=json" in
  check int "still 200 without data" 200 no_data.Demo_server.status;
  check bool "dataset null without data" true
    (contains_substring no_data.Demo_server.body "\"dataset\": null")

let test_handle_errors () =
  let s = server () in
  check int "missing data" 400 (Demo_server.handle s "/search?q=x").Demo_server.status;
  check int "unknown data" 404
    (Demo_server.handle s "/search?data=nope&q=x").Demo_server.status;
  check int "missing q" 400 (Demo_server.handle s "/search?data=paper").Demo_server.status;
  check int "unknown route" 404 (Demo_server.handle s "/nope").Demo_server.status

(* ------------------------------------------------------------------ *)
(* Server: socket round trip (single-process: connect backlogs before
   accept) *)

let http_get port target =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" target in
  ignore (Unix.write_substring sock req 0 (String.length req));
  sock

let read_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    let n = Unix.read fd chunk 0 4096 in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      loop ()
    end
  in
  (try loop () with Unix.Unix_error _ -> ());
  Buffer.contents buf

let test_socket_roundtrip () =
  let s = server () in
  let listening = Demo_server.listen ~port:0 in
  let port = Demo_server.bound_port listening in
  let client = http_get port "/stats?data=paper" in
  Demo_server.serve_once s listening;
  let response = read_all client in
  Unix.close client;
  Unix.close listening;
  check bool "status line" true (contains_substring response "HTTP/1.0 200 OK");
  check bool "content" true (contains_substring response "nodes")

let test_socket_404 () =
  let s = server () in
  let listening = Demo_server.listen ~port:0 in
  let port = Demo_server.bound_port listening in
  let client = http_get port "/missing" in
  Demo_server.serve_once s listening;
  let response = read_all client in
  Unix.close client;
  Unix.close listening;
  check bool "404" true (contains_substring response "HTTP/1.0 404")

(* ------------------------------------------------------------------ *)
(* Server: resilience (DESIGN.md §9) *)

module Deadline = Extract_util.Deadline
module Faults = Extract_util.Faults

let with_faults spec f =
  match Faults.configure spec with
  | Error e -> Alcotest.failf "configure %S: %s" spec e
  | Ok () -> Fun.protect ~finally:Faults.clear f

let quiet_config = { Demo_server.default_config with Demo_server.log = ignore }

let logging_config () =
  let logs = ref [] in
  ( { Demo_server.default_config with Demo_server.log = (fun m -> logs := m :: !logs) },
    logs )

let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let request_line data =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      write_all a data;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Demo_server.read_request_line (Demo_server.reader b))

let test_read_request_line_forms () =
  (match request_line "GET / HTTP/1.0\r\n" with
  | Demo_server.Line l -> check string "crlf" "GET / HTTP/1.0" l
  | _ -> Alcotest.fail "crlf line not read");
  (match request_line "GET / HTTP/1.0\n" with
  | Demo_server.Line l -> check string "bare lf" "GET / HTTP/1.0" l
  | _ -> Alcotest.fail "lf line not read");
  check bool "bare CR rejected" true (request_line "GET /\rHTTP/1.0\n" = Demo_server.Bad_cr);
  check bool "eof mid-line" true (request_line "GET /incompl" = Demo_server.Eof);
  check bool "empty" true (request_line "" = Demo_server.Eof)

let test_read_request_line_bound_exact () =
  let max = Demo_server.max_request_line in
  (* max - 1 content bytes + terminator: the longest accepted line *)
  (match request_line (String.make (max - 1) 'a' ^ "\n") with
  | Demo_server.Line l -> check int "longest line kept whole" (max - 1) (String.length l)
  | _ -> Alcotest.fail "line at the bound rejected");
  (* max content bytes: over, even with a terminator right behind *)
  check bool "one more byte is too long" true
    (request_line (String.make max 'a' ^ "\n") = Demo_server.Too_long)

let with_server_socket f =
  let s = server () in
  let listening = Demo_server.listen ~port:0 in
  let port = Demo_server.bound_port listening in
  Fun.protect ~finally:(fun () -> Unix.close listening) (fun () -> f s listening port)

let roundtrip ?(config = quiet_config) s listening port target =
  let client = http_get port target in
  Demo_server.serve_once ~config s listening;
  let response = read_all client in
  Unix.close client;
  response

let test_slowloris_times_out () =
  with_server_socket (fun s listening port ->
      let config = { quiet_config with Demo_server.timeout_ms = 50 } in
      (* the client connects and then says nothing *)
      let mute = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect mute (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Demo_server.serve_once ~config s listening;
      let answer = read_all mute in
      Unix.close mute;
      check bool "408 answered" true (contains_substring answer "HTTP/1.0 408");
      (* the loop is still alive: a polite client is served next *)
      let response = roundtrip ~config s listening port "/stats?data=paper" in
      check bool "still serving" true (contains_substring response "HTTP/1.0 200 OK"))

let test_reset_client_is_dropped_not_fatal () =
  with_server_socket (fun s listening port ->
      let config, logs = logging_config () in
      let client = http_get port "/stats?data=paper" in
      (* SO_LINGER 0: closing sends RST instead of FIN, so the server's
         next read or write on this connection fails hard *)
      Unix.setsockopt_optint client Unix.SO_LINGER (Some 0);
      Unix.close client;
      Demo_server.serve_once ~config s listening;
      check bool "drop was logged" true (!logs <> []);
      let response = roundtrip ~config s listening port "/stats?data=paper" in
      check bool "still serving" true (contains_substring response "HTTP/1.0 200 OK"))

let test_junk_request_rejected () =
  with_server_socket (fun s listening port ->
      let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect client (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all client "BREW /pot-1 HTCPCP/1.0\r\n\r\n";
      Demo_server.serve_once ~config:quiet_config s listening;
      let answer = read_all client in
      Unix.close client;
      check bool "400 answered" true (contains_substring answer "HTTP/1.0 400");
      check bool "names the request" true (contains_substring answer "unsupported");
      (* pipelined trailing junk after a good request is simply ignored *)
      let client2 = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect client2 (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all client2 "GET /stats?data=paper HTTP/1.0\r\n\r\n\000\000garbage after the request";
      Demo_server.serve_once ~config:quiet_config s listening;
      let answer2 = read_all client2 in
      Unix.close client2;
      check bool "served despite trailing junk" true
        (contains_substring answer2 "HTTP/1.0 200 OK"))

let test_header_overflow_431 () =
  with_server_socket (fun s listening port ->
      let config = { quiet_config with Demo_server.max_header_bytes = 128 } in
      let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect client (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all client "GET /stats?data=paper HTTP/1.0\r\n";
      write_all client ("X-Filler: " ^ String.make 256 'x' ^ "\r\n\r\n");
      Demo_server.serve_once ~config s listening;
      let answer = read_all client in
      Unix.close client;
      check bool "431 answered" true (contains_substring answer "HTTP/1.0 431"))

let test_expired_deadline_sheds_search () =
  let s = server () in
  let gone = Deadline.of_ms_opt (Some 0) in
  let r = Demo_server.handle ~deadline:gone s "/search?data=paper&q=store+texas&bound=6" in
  check int "503" 503 r.Demo_server.status;
  check bool "retry-after advertised" true
    (List.mem_assoc "Retry-After" r.Demo_server.headers);
  (* cheap routes are still served under the same dead budget *)
  check int "home still 200" 200 (Demo_server.handle ~deadline:gone s "/").Demo_server.status;
  check int "stats still 200" 200
    (Demo_server.handle ~deadline:gone s "/stats?data=paper").Demo_server.status

let test_degraded_page_served_not_cached () =
  let s = server () in
  let target = "/search?data=paper&q=store+texas&bound=6" in
  with_faults "pipeline.snippet:fail" (fun () ->
      let r = Demo_server.handle s target in
      check int "still 200 under pressure" 200 r.Demo_server.status;
      check bool "snippets tagged degraded" true
        (contains_substring r.Demo_server.body "class=\"degraded\"");
      check bool "degraded counter moved" true (Demo_server.degraded_served s > 0));
  let stats = Demo_server.handle s "/stats?data=paper" in
  check bool "stats reports degradation" true
    (contains_substring stats.Demo_server.body "degraded snippets served");
  (* once the pressure is gone the same target is recomputed in full:
     neither cache kept the degraded page *)
  let clean = Demo_server.handle s target in
  check int "clean 200" 200 clean.Demo_server.status;
  check bool "full snippets again" false
    (contains_substring clean.Demo_server.body "class=\"degraded\"")

let test_injected_fault_maps_to_503 () =
  let s = server () in
  with_faults "pipeline.search:fail" (fun () ->
      let r = Demo_server.handle s "/search?data=paper&q=store+texas" in
      check int "503" 503 r.Demo_server.status;
      check bool "retry-after advertised" true
        (List.mem_assoc "Retry-After" r.Demo_server.headers));
  let r = Demo_server.handle s "/search?data=paper&q=store+texas" in
  check int "recovers once the fault clears" 200 r.Demo_server.status

(* ------------------------------------------------------------------ *)
(* Server: observability (explain, slowlog, request-id correlation) *)

module Slowlog = Extract_obs.Slowlog
module Log = Extract_obs.Log
module Trace = Extract_obs.Trace

let test_explain_route () =
  let s = server () in
  let r = Demo_server.handle s "/explain?data=paper&q=store+texas&bound=6" in
  check int "200" 200 r.Demo_server.status;
  check bool "json by default" true
    (contains_substring r.Demo_server.content_type "application/json");
  List.iter
    (fun key ->
      check bool (key ^ " present") true (contains_substring r.Demo_server.body key))
    [
      "\"request_id\": \"q";
      "\"query\": \"store texas\"";
      "\"bound\": 6";
      "\"edges_used\"";
      "\"covered\"";
      "\"result_explains\"";
    ];
  let t = Demo_server.handle s "/explain?data=paper&q=store+texas&format=text" in
  check int "text form 200" 200 t.Demo_server.status;
  check bool "text form is plain" true
    (contains_substring t.Demo_server.content_type "text/plain");
  check int "unknown format" 400
    (Demo_server.handle s "/explain?data=paper&q=x&format=yaml").Demo_server.status;
  check int "missing q" 400 (Demo_server.handle s "/explain?data=paper").Demo_server.status;
  check int "unknown data" 404 (Demo_server.handle s "/explain?data=nope&q=x").Demo_server.status

let test_explain_not_page_cached () =
  let s = server () in
  let target = "/explain?data=paper&q=store+texas&bound=6" in
  ignore (Demo_server.handle s target);
  let hits_before, _ = Demo_server.cache_stats s in
  ignore (Demo_server.handle s target);
  let hits_after, _ = Demo_server.cache_stats s in
  check int "explain bypasses the page cache" hits_before hits_after;
  (* the second bundle records a snippet-cache hit instead of rerunning *)
  let r = Demo_server.handle s target in
  check bool "cache provenance recorded" true
    (contains_substring r.Demo_server.body "\"outcome\": \"hit\"")

let test_slowlog_route_captures_degraded_and_faulted () =
  Slowlog.reset ();
  let s = server () in
  (* a degraded query: the snippet stage fails in place, the page is 200 *)
  with_faults "pipeline.snippet:fail" (fun () ->
      let r = Demo_server.handle s "/search?data=paper&q=store+texas&bound=6" in
      check int "degraded page still 200" 200 r.Demo_server.status);
  (* a faulted query: the search stage raises, the request is 503 *)
  with_faults "pipeline.search:fail" (fun () ->
      let r = Demo_server.handle s "/search?data=paper&q=houston+suit" in
      check int "faulted request 503" 503 r.Demo_server.status);
  let r = Demo_server.handle s "/debug/slowlog" in
  check int "200" 200 r.Demo_server.status;
  check bool "json" true (contains_substring r.Demo_server.content_type "application/json");
  let _, ring = Slowlog.snapshot () in
  check bool "both queries in the ring" true
    (List.exists
       (fun e -> e.Slowlog.query = "store texas" && e.Slowlog.degraded > 0)
       ring
    && List.exists
         (fun e -> e.Slowlog.query = "houston suit" && e.Slowlog.faulted)
         ring);
  List.iter
    (fun needle ->
      check bool (needle ^ " served") true (contains_substring r.Demo_server.body needle))
    [ "\"store texas\""; "\"houston suit\""; "\"faulted\": true"; "\"rid\": \"q" ];
  (* every ring entry's rid is also served on the route *)
  List.iter
    (fun e ->
      check bool ("rid " ^ e.Slowlog.rid ^ " served") true
        (contains_substring r.Demo_server.body ("\"rid\": \"" ^ e.Slowlog.rid ^ "\"")))
    ring;
  Slowlog.reset ()

(* One request, one id: the access-log line, the pipeline's event-log
   lines, the trace spans and the explain bundle must all carry the same
   request id. *)
let rid_of_line line =
  let marker = "\"rid\": \"" in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length line then None
    else if String.sub line i ml = marker then Some (String.sub line (i + ml) 7)
    else find (i + 1)
  in
  find 0

let test_request_id_propagation () =
  let s = server () in
  (* built before tracing starts: the build span is not part of any request *)
  let lines = ref [] in
  Log.set_sink (Some (fun l -> lines := l :: !lines));
  Log.set_level (Some Log.Info);
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ();
      Log.set_level None;
      Log.set_sink None)
    (fun () ->
      let r = Demo_server.handle s "/explain?data=paper&q=houston+woman&bound=8" in
      check int "200" 200 r.Demo_server.status;
      let line_with event =
        match
          List.find_opt (fun l -> contains_substring l ("\"event\": \"" ^ event ^ "\"")) !lines
        with
        | Some l -> l
        | None -> Alcotest.failf "no %s line logged" event
      in
      let access = line_with "http.access" in
      let rid =
        match rid_of_line access with
        | Some rid -> rid
        | None -> Alcotest.fail "access line carries no rid"
      in
      check bool "pipeline event shares the access line's rid" true
        (rid_of_line (line_with "query.done") = Some rid);
      check bool "explain bundle shares it" true
        (contains_substring r.Demo_server.body ("\"request_id\": \"" ^ rid ^ "\""));
      let spans = Trace.finished () in
      check bool "spans were recorded" true (spans <> []);
      List.iter
        (fun (sp : Trace.span) ->
          check bool (sp.Trace.name ^ " span shares it") true
            (sp.Trace.rid = Some rid))
        spans)

(* ------------------------------------------------------------------ *)
(* Courses dataset *)

let test_courses_shape () =
  let doc = Extract_datagen.Courses.generate Extract_datagen.Courses.default in
  let d = Document.of_document doc in
  let kinds = Extract_store.Node_kind.of_document d in
  let guide = Extract_store.Node_kind.dataguide kinds in
  let course = Option.get (Extract_store.Dataguide.find_path guide [ "courses"; "course" ]) in
  check bool "course is an entity" true
    (Extract_store.Node_kind.kind_of_path kinds course = Extract_store.Node_kind.Entity);
  check int "120 courses" 120 (Extract_store.Dataguide.instance_count guide course);
  (* code is unique and total: it is the mined key *)
  let keys = Extract_store.Key_miner.mine kinds in
  let key = Extract_store.Key_miner.key_path keys course in
  check bool "code mined as key" true
    (Option.map (Extract_store.Dataguide.path_tag_name guide) key = Some "code")

let test_courses_validates () =
  let doc = Extract_datagen.Courses.generate Extract_datagen.Courses.default in
  match doc.Extract_xml.Types.dtd with
  | None -> Alcotest.fail "courses should carry a DTD"
  | Some subset ->
    check bool "valid against own DTD" true
      (Extract_xml.Validator.is_valid (Extract_xml.Dtd.parse subset)
         doc.Extract_xml.Types.root)

let test_courses_pipeline () =
  let db =
    Pipeline.build
      (Document.of_document (Extract_datagen.Courses.generate Extract_datagen.Courses.default))
  in
  let results = Pipeline.run ~bound:6 db "course databases" in
  check bool "has results" true (results <> []);
  List.iter
    (fun (r : Pipeline.snippet_result) ->
      check bool "bound" true
        (Extract_snippet.Snippet_tree.edge_count
           r.Pipeline.selection.Extract_snippet.Selector.snippet
        <= 6))
    results

(* ------------------------------------------------------------------ *)
(* Server: live-store admin routes *)

let temp_live_dir () =
  let path = Filename.temp_file "extract_live_srv" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let live_server () =
  let db =
    Pipeline.build (Document.of_document (Extract_datagen.Paper_example.document ()))
  in
  let live = Extract_snippet.Live_corpus.open_dir (temp_live_dir ()) in
  Demo_server.create ~live (Corpus.of_list [ "paper", db ]), live

let post ?(body = "") s target =
  Demo_server.handle_request ~meth:Demo_server.Post ~body s target

let store_xml city name =
  Printf.sprintf "<store><city>%s</city><name>%s</name></store>" city name

let test_admin_add_search_remove () =
  let s, live = live_server () in
  let r = post ~body:(store_xml "Houston" "Soccer West") s "/admin/add?name=a.xml" in
  check int "add 200" 200 r.Demo_server.status;
  check bool "names member" true (contains_substring r.Demo_server.body "a.xml");
  let r = Demo_server.handle s "/live/search?q=soccer" in
  check int "live search 200" 200 r.Demo_server.status;
  check bool "hit content shows" true (contains_substring r.Demo_server.body "Soccer West");
  let r = Demo_server.handle s "/live" in
  check int "status 200" 200 r.Demo_server.status;
  check bool "status lists member" true (contains_substring r.Demo_server.body "a.xml");
  check int "remove 200" 200 (post s "/admin/remove?name=a.xml").Demo_server.status;
  check int "remove again 404" 404 (post s "/admin/remove?name=a.xml").Demo_server.status;
  Extract_snippet.Live_corpus.close live

let test_admin_update_invalidates_search () =
  (* live pages bypass the caches: a search after an update must see the
     new member even though the same target was served before *)
  let s, live = live_server () in
  ignore (post ~body:(store_xml "Austin" "Shared Alpha") s "/admin/add?name=a.xml");
  let before = Demo_server.handle s "/live/search?q=shared" in
  check bool "first member found" true (contains_substring before.Demo_server.body "Alpha");
  check bool "second member absent" false (contains_substring before.Demo_server.body "Beta");
  ignore (post ~body:(store_xml "Austin" "Shared Beta") s "/admin/add?name=b.xml");
  let after = Demo_server.handle s "/live/search?q=shared" in
  check bool "update visible" true (contains_substring after.Demo_server.body "Beta");
  Extract_snippet.Live_corpus.close live

let test_admin_compact () =
  let s, live = live_server () in
  ignore (post ~body:(store_xml "Dallas" "Gamma") s "/admin/add?name=a.xml");
  let r = post s "/admin/compact" in
  check int "compact 200" 200 r.Demo_server.status;
  check bool "names generation" true (contains_substring r.Demo_server.body "generation 1");
  let r = Demo_server.handle s "/live/search?q=gamma" in
  check bool "content survives compaction" true
    (contains_substring r.Demo_server.body "Gamma");
  Extract_snippet.Live_corpus.close live

let test_admin_method_discipline () =
  let s, live = live_server () in
  check int "GET on admin route" 405 (Demo_server.handle s "/admin/add?name=a").Demo_server.status;
  check int "POST on search" 405 (post s "/search?data=paper&q=x").Demo_server.status;
  check int "POST on unknown route" 405 (post s "/nope").Demo_server.status;
  check string "Allow header" "POST"
    (Option.value ~default:"-"
       (List.assoc_opt "Allow" (Demo_server.handle s "/admin/compact").Demo_server.headers));
  Extract_snippet.Live_corpus.close live

let test_admin_bad_input () =
  let s, live = live_server () in
  check int "missing name" 400 (post ~body:"<a/>" s "/admin/add").Demo_server.status;
  check int "empty body" 400 (post s "/admin/add?name=a.xml").Demo_server.status;
  check int "unparsable xml" 400
    (post ~body:"<a><b></a>" s "/admin/add?name=a.xml").Demo_server.status;
  check int "bad member name" 400
    (post ~body:"<a/>" s "/admin/add?name=a/b").Demo_server.status;
  (* none of the rejected updates may have reached the store *)
  check bool "store untouched" true (Extract_snippet.Live_corpus.names live = []);
  Extract_snippet.Live_corpus.close live

let test_admin_without_live_store () =
  let s = server () in
  check int "add 404" 404 (post ~body:"<a/>" s "/admin/add?name=a").Demo_server.status;
  check int "compact 404" 404 (post s "/admin/compact").Demo_server.status;
  check int "live status 404" 404 (Demo_server.handle s "/live").Demo_server.status;
  check int "live search 404" 404 (Demo_server.handle s "/live/search?q=x").Demo_server.status

(* ------------------------------------------------------------------ *)
(* Server: per-request observability on the fan-out routes *)

(* Regression: /shards/search and /live/search must flow through the
   same per-request observability as /search — every served request
   emits one http.access line stamped with its request id. *)
let test_fanout_routes_access_logged () =
  let module Log = Extract_obs.Log in
  let doc = Document.of_document (Extract_datagen.Paper_example.document ()) in
  let sharded_srv =
    Demo_server.create
      ~sharded:(Extract_snippet.Shard_set.split ~shards:2 doc)
      (Corpus.of_list [ "paper", Pipeline.build doc ])
  in
  let live_srv, live = live_server () in
  ignore (post ~body:(store_xml "Austin" "Logged Store") live_srv "/admin/add?name=a.xml");
  let lines = ref [] in
  Log.set_sink (Some (fun l -> lines := l :: !lines));
  Log.set_level (Some Log.Info);
  Fun.protect
    ~finally:(fun () ->
      Log.set_level None;
      Log.set_sink None;
      Extract_snippet.Live_corpus.close live)
    (fun () ->
      check int "shards search 200" 200
        (Demo_server.handle sharded_srv "/shards/search?q=store+texas").Demo_server.status;
      check int "live search 200" 200
        (Demo_server.handle live_srv "/live/search?q=logged").Demo_server.status;
      let access =
        List.filter (fun l -> contains_substring l "\"event\": \"http.access\"") !lines
      in
      check int "one access line per fan-out request" 2 (List.length access);
      List.iter
        (fun l ->
          check bool "access line carries a request id" true
            (contains_substring l "\"rid\": \"q"))
        access)

(* Each search route renders its page under one snippet.render span, a
   child of the request's http.request span with the same rid; a page
   served from the page cache renders nothing. *)
let test_render_span_per_search_route () =
  let module Trace = Extract_obs.Trace in
  let doc = Document.of_document (Extract_datagen.Paper_example.document ()) in
  let live_srv, live = live_server () in
  ignore (post ~body:(store_xml "Austin" "Rendered Store") live_srv "/admin/add?name=a.xml");
  let sharded_srv =
    Demo_server.create
      ~sharded:(Extract_snippet.Shard_set.split ~shards:2 doc)
      (Corpus.of_list [ "paper", Pipeline.build doc ])
  in
  let rec renders (s : Trace.span) =
    (if s.Trace.name = "snippet.render" then 1 else 0)
    + List.fold_left (fun n c -> n + renders c) 0 s.Trace.children
  in
  let traced srv target =
    Trace.clear ();
    let r = Demo_server.handle srv target in
    check int (target ^ " served") 200 r.Demo_server.status;
    match Trace.finished () with
    | [ root ] when root.Trace.name = "http.request" -> root
    | roots -> Alcotest.failf "%s: expected one http.request root, got %d" target (List.length roots)
  in
  Trace.set_sample_interval 1;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_sample_interval 0;
      Trace.clear ();
      Extract_snippet.Live_corpus.close live)
    (fun () ->
      List.iter
        (fun (srv, target) ->
          let root = traced srv target in
          match List.filter (fun c -> c.Trace.name = "snippet.render") root.Trace.children with
          | [ render ] ->
            check int (target ^ ": no other render span") 1 (renders root);
            check bool (target ^ ": same rid") true
              (root.Trace.rid <> None && render.Trace.rid = root.Trace.rid)
          | l -> Alcotest.failf "%s: expected one snippet.render child, got %d" target (List.length l))
        [
          sharded_srv, "/search?data=paper&q=store+texas";
          sharded_srv, "/shards/search?q=store+texas";
          live_srv, "/live/search?q=rendered";
        ];
      check int "page-cache hit renders nothing" 0
        (renders (traced sharded_srv "/search?data=paper&q=store+texas")))

let suites =
  [
    ( "util.lru",
      [
        Alcotest.test_case "basic" `Quick test_lru_basic;
        Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
        Alcotest.test_case "evictions counted" `Quick test_lru_evictions_counted;
        Alcotest.test_case "replace" `Quick test_lru_replace;
        Alcotest.test_case "find_or_add" `Quick test_lru_find_or_add;
        Alcotest.test_case "remove/clear" `Quick test_lru_remove_clear;
        Alcotest.test_case "capacity one" `Quick test_lru_capacity_one;
        Alcotest.test_case "model stress" `Quick test_lru_stress_against_model;
      ] );
    ( "server.url",
      [
        Alcotest.test_case "decode" `Quick test_url_decode;
        Alcotest.test_case "parse target" `Quick test_parse_target;
      ] );
    ( "server.handler",
      [
        Alcotest.test_case "home" `Quick test_handle_home;
        Alcotest.test_case "search" `Quick test_handle_search;
        Alcotest.test_case "page cache" `Quick test_handle_search_caches;
        Alcotest.test_case "complete" `Quick test_handle_complete;
        Alcotest.test_case "stats" `Quick test_handle_stats;
        Alcotest.test_case "metrics" `Quick test_handle_metrics;
        Alcotest.test_case "stats json" `Quick test_handle_stats_json;
        Alcotest.test_case "errors" `Quick test_handle_errors;
      ] );
    ( "server.socket",
      [
        Alcotest.test_case "roundtrip" `Quick test_socket_roundtrip;
        Alcotest.test_case "404" `Quick test_socket_404;
      ] );
    ( "server.resilience",
      [
        Alcotest.test_case "request line forms" `Quick test_read_request_line_forms;
        Alcotest.test_case "request line bound" `Quick test_read_request_line_bound_exact;
        Alcotest.test_case "slowloris" `Quick test_slowloris_times_out;
        Alcotest.test_case "reset client dropped" `Quick test_reset_client_is_dropped_not_fatal;
        Alcotest.test_case "junk request" `Quick test_junk_request_rejected;
        Alcotest.test_case "header overflow" `Quick test_header_overflow_431;
        Alcotest.test_case "expired deadline sheds" `Quick test_expired_deadline_sheds_search;
        Alcotest.test_case "degraded page" `Quick test_degraded_page_served_not_cached;
        Alcotest.test_case "injected fault 503" `Quick test_injected_fault_maps_to_503;
      ] );
    ( "server.observability",
      [
        Alcotest.test_case "explain route" `Quick test_explain_route;
        Alcotest.test_case "explain not page cached" `Quick test_explain_not_page_cached;
        Alcotest.test_case "slowlog route" `Quick test_slowlog_route_captures_degraded_and_faulted;
        Alcotest.test_case "request id propagation" `Quick test_request_id_propagation;
        Alcotest.test_case "fan-out routes access-logged" `Quick
          test_fanout_routes_access_logged;
        Alcotest.test_case "render span per search route" `Quick
          test_render_span_per_search_route;
      ] );
    ( "server.live",
      [
        Alcotest.test_case "add/search/remove" `Quick test_admin_add_search_remove;
        Alcotest.test_case "update visible to search" `Quick
          test_admin_update_invalidates_search;
        Alcotest.test_case "compact" `Quick test_admin_compact;
        Alcotest.test_case "method discipline" `Quick test_admin_method_discipline;
        Alcotest.test_case "bad input rejected" `Quick test_admin_bad_input;
        Alcotest.test_case "no live store 404" `Quick test_admin_without_live_store;
      ] );
    ( "datagen.courses",
      [
        Alcotest.test_case "shape" `Quick test_courses_shape;
        Alcotest.test_case "validates" `Quick test_courses_validates;
        Alcotest.test_case "pipeline" `Quick test_courses_pipeline;
      ] );
  ]
