(* The repository's benchmark: one workload per invocation, served by
   the real demo server over sockets and driven open-loop.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--server PATH] [--record PATH] [--work DIR]

   --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
   replay and reports the per-layer metrics (see perfbench/README.md).
   Human-readable lines go to stdout first; the last line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

module Live_corpus = Extract_snippet.Live_corpus

(* ------------------------------------------------------------------ *)
(* Reporting *)

type metric = { name : string; unit_ : string; value : float; n : int option }

let reported : metric list ref = ref []

let report ?n name unit_ value =
  reported := { name; unit_; value; n } :: !reported;
  Printf.printf "metric %-28s %16.6f %-6s%s\n%!" name value unit_
    (match n with Some k -> Printf.sprintf "  (n=%d)" k | None -> "")

let note fmt = Printf.printf (fmt ^^ "\n%!")

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let final_line ~correct ~attempted ~failed names =
  let metric (name, unit_) =
    match List.find_opt (fun m -> m.name = name) !reported with
    | Some m when m.unit_ = unit_ ->
      Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Extract_obs.Jsonv.quote name)
        (number m.value) (Extract_obs.Jsonv.quote m.unit_)
    | Some m -> failwith (Printf.sprintf "metric %s measured in %s, declared in %s" name m.unit_ unit_)
    | None -> failwith ("metric not measured: " ^ name)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric names))

(* ------------------------------------------------------------------ *)
(* Request schedules *)

open Spec

type streams = {
  next_reads : int -> Spec.target array;
  mutable writes : int; (* writes scheduled so far: the next write's index *)
  mutable reads : int; (* reads scheduled so far: picks the oracle sample *)
}

let oracle_every = 16

let read_request (r : Spec.record) st (t : Spec.target) ~due =
  let i = st.reads in
  st.reads <- i + 1;
  {
    Openloop.due;
    meth = "GET";
    target = Spec.target_path r t;
    body = "";
    lane = 0;
    expect = "<!DOCTYPE html>";
    keep_body = r.Spec.route <> Spec.Live && i mod oracle_every = 0;
  }

let write_request st ~due =
  let j = st.writes in
  st.writes <- j + 1;
  let meth, target, body, expect =
    match Spec.write_request j with
    | `Compact -> "POST", "/admin/compact", "", "compacted"
    | `Add (name, xml) -> "POST", "/admin/add?name=" ^ name, xml, "added "
  in
  Write j, { Openloop.due; meth; target; body; lane = 1; expect; keep_body = false }

(* Reads at [rate] for [duration] seconds, plus the live workload's
   writes at their fixed rate on the second connection. *)
let schedule (r : Spec.record) st ~rate ~duration =
  let reads =
    st.next_reads (max 1 (int_of_float (rate *. duration)))
    |> Array.to_list
    |> List.mapi (fun i t -> Read t, read_request r st t ~due:(float_of_int i /. rate))
  in
  let writes =
    if r.Spec.route <> Spec.Live || r.Spec.write_rps <= 0. then []
    else
      List.init
        (max 1 (int_of_float (r.Spec.write_rps *. duration)))
        (fun j -> write_request st ~due:((float_of_int j +. 0.5) /. r.Spec.write_rps))
  in
  List.stable_sort
    (fun (_, (a : Openloop.request)) (_, b) -> Float.compare a.Openloop.due b.Openloop.due)
    (reads @ writes)
  |> Array.of_list

type phase = {
  label : string;
  valid : bool; (* the generator kept to its schedule *)
  kinds : kind array;
  reqs : Openloop.request array;
  res : Openloop.result;
  read_ms : float array;
  write_ms : float array;
  late_ms : float array;
}

let lanes_of (r : Spec.record) = if r.Spec.route = Spec.Live then [| 0; 1 |] else [| 0; 0 |]

(* One phase at a fixed offered rate. With [saturate], reads fall due
   faster than any server answers them and the phase stops sending after
   [duration]; requests it never sent are left out. *)
let run_phase ?(saturate = false) (r : Spec.record) st ~port ~label ~rate ~duration =
  let sched = schedule r st ~rate ~duration in
  let stop_after = if saturate then duration else infinity in
  let res = Openloop.run ~stop_after ~port ~classes:(lanes_of r) (Array.map snd sched) in
  let sent l = List.filteri (fun i _ -> res.Openloop.outcomes.(i).Openloop.status >= 0) l in
  let sched = Array.of_list (sent (Array.to_list sched)) in
  let res = { res with Openloop.outcomes = Array.of_list (sent (Array.to_list res.Openloop.outcomes)) } in
  let kinds = Array.map fst sched and reqs = Array.map snd sched in
  let lat = Openloop.latencies_ms res reqs in
  let pick p = Array.of_list (List.filteri (fun i _ -> p kinds.(i)) (Array.to_list lat)) in
  let read_ms = pick (function Read _ -> true | Write _ -> false) in
  let write_ms = pick (function Write _ -> true | Read _ -> false) in
  let late_ms = Array.map (fun (o : Openloop.outcome) -> o.Openloop.late *. 1000.) res.Openloop.outcomes in
  let late99 = Stats.quantile late_ms 0.99 in
  (* the generator fell behind when its own lateness is a real share of
     the tail it measures (a saturated phase is late by design) *)
  let valid = saturate || late99 <= Float.max 5. (0.25 *. Stats.p90 read_ms) in
  note
    "phase %-10s rate %8.2f/s  reads %5d p50 %9.3f ms p90 %9.3f ms  late p99 %7.3f ms  backlog max %d end %d  %s"
    label rate (Array.length read_ms) (Stats.p50 read_ms) (Stats.p90 read_ms) late99
    res.Openloop.backlog_max res.Openloop.backlog_end
    (if valid then "valid" else "INVALID (generator fell behind)");
  { label; valid; kinds; reqs; res; read_ms; write_ms; late_ms }

let failures p =
  Array.fold_left (fun n o -> if Openloop.ok o then n else n + 1) 0 p.res.Openloop.outcomes

(* ------------------------------------------------------------------ *)
(* The answer oracle over the sampled bodies of every phase. *)
let oracle r inputs phases =
  let samples =
    List.concat_map
      (fun p ->
        List.filter_map Fun.id
          (List.mapi
             (fun i (o : Openloop.outcome) ->
               match p.kinds.(i), o.Openloop.body with
               | Read t, Some body when o.Openloop.status = 200 -> Some (t, body)
               | _ -> None)
             (Array.to_list p.res.Openloop.outcomes)))
      phases
  in
  let checked, wrong = Oracle.check r inputs samples in
  note "oracle: %d sampled answers checked, %d wrong" checked wrong;
  wrong

(* Live durability: after the run, the reopened store holds the latest
   acknowledged version of every written member. *)
let durability inputs store phases =
  let latest = Hashtbl.create 8 and acked_bytes = ref 0 in
  List.iter
    (fun p ->
      Array.iteri
        (fun i o ->
          match p.kinds.(i) with
          | Write j when Openloop.ok o -> (
            match Spec.write_request j with
            | `Add (name, xml) ->
              acked_bytes := !acked_bytes + String.length xml;
              (match Hashtbl.find_opt latest name with
              | Some j' when j' > j -> ()
              | _ -> Hashtbl.replace latest name j)
            | `Compact -> ())
          | _ -> ())
        p.res.Openloop.outcomes)
    phases;
  let live = Live_corpus.open_dir ~read_only:true store in
  let missing =
    Hashtbl.fold
      (fun name j n ->
        let hits = Live_corpus.run ~limit:50 live (Spec.write_marker j) in
        if List.exists (fun (h : Live_corpus.hit) -> h.Live_corpus.source = name) hits then n
        else begin
          note "durability: acknowledged add %s (write %d) is missing" name j;
          n + 1
        end)
      latest 0
  in
  Live_corpus.close live;
  let seed_bytes = List.fold_left (fun a x -> a + String.length x) 0 inputs.Spec.corpus_xml in
  note "durability: %d members checked, %d missing" (Hashtbl.length latest) missing;
  missing, float_of_int (Spec.dir_bytes store) /. float_of_int (seed_bytes + !acked_bytes)

(* ------------------------------------------------------------------ *)
(* Serving *)

let start_server ~exe inputs =
  ignore (Spec.fresh_store inputs);
  Server.start ~exe ~args:inputs.Spec.serve_args ~log:(Filename.concat inputs.Spec.dir "server.log")

let warm (r : Spec.record) inputs port =
  let targets =
    if r.Spec.zipf > 0. then inputs.Spec.targets
    else Array.sub inputs.Spec.targets 0 (min 8 (Array.length inputs.Spec.targets))
  in
  Array.iter (fun t -> ignore (Openloop.fetch port (Spec.target_path r t))) targets

(* The highest rate served without a growing backlog: reads fall due at
   20 times the high rate, so both connections stay busy and the backlog
   never empties, for [duration] seconds; the figure is reads completed
   per second. (Writes keep their fixed rate.) *)
let saturate (r : Spec.record) st ~port ~label ~duration =
  let p = run_phase ~saturate:true r st ~port ~label ~rate:(20. *. r.Spec.high_rps) ~duration in
  let start = p.res.Openloop.start in
  let reads, last =
    Array.fold_left
      (fun (n, last) (kind, o) ->
        match kind with
        | Read _ when Openloop.ok o -> n + 1, Float.max last o.Openloop.finished
        | _ -> n, last)
      (0, start)
      (Array.map2 (fun k o -> k, o) p.kinds p.res.Openloop.outcomes)
  in
  let throughput = float_of_int reads /. (last -. start) in
  note "phase %-10s %d reads completed in %.3f s: %.2f/s" label reads (last -. start) throughput;
  throughput, p

(* server starts per run; set-up time is their median *)
let setups = 15

let rounds = 3

let e2e ~exe (r : Spec.record) inputs ~seed ~seconds =
  let starts =
    List.init setups (fun k ->
        let srv, s = start_server ~exe inputs in
        note "setup %d: %.4f s to /readyz 200" (k + 1) s;
        if k < setups - 1 then begin
          Server.stop srv;
          None, s
        end
        else Some srv, s)
  in
  let srv = Option.get (List.find_map fst starts) in
  report ~n:setups "setup_s" "s" (Stats.median (Array.of_list (List.map snd starts)));
  let port = srv.Server.port in
  warm r inputs port;
  let st = { next_reads = Spec.read_stream r inputs ~seed; writes = 0; reads = 0 } in
  let s = float_of_int seconds in
  (* the phases run in [rounds] interleaved rounds, so a slow spell of
     the host lands in one round of each phase instead of all of one *)
  let cpu = ref 0. in
  let rounds =
    List.init rounds (fun k ->
        let d share = share *. s /. float_of_int rounds in
        let label name = Printf.sprintf "%s.%d" name (k + 1) in
        let cpu0 = Server.cpu_seconds srv in
        let low = run_phase r st ~port ~label:(label "low") ~rate:r.Spec.low_rps ~duration:(d 0.35) in
        let high =
          run_phase r st ~port ~label:(label "high") ~rate:r.Spec.high_rps ~duration:(d 0.35)
        in
        cpu := !cpu +. (Server.cpu_seconds srv -. cpu0);
        let rate, sat = saturate r st ~port ~label:(label "saturate") ~duration:(d 0.3) in
        low, high, rate, sat)
  in
  let rss = Server.peak_rss_mb srv in
  Server.stop srv;
  let lows = List.map (fun (l, _, _, _) -> l) rounds
  and highs = List.map (fun (_, h, _, _) -> h) rounds
  and sats = List.map (fun (_, _, _, x) -> x) rounds in
  let phases = lows @ highs @ sats in
  (match List.filter (fun p -> not p.valid) phases with
  | [] -> note "run valid: the generator kept to its schedule in every phase"
  | bad ->
    note "run INVALID: the generator fell behind in phase(s) %s"
      (String.concat ", " (List.map (fun p -> p.label) bad)));
  (* each latency figure is the best round's: delays the host adds are
     never negative, so the least disturbed round reads the program *)
  let best name stat ps =
    let p, v =
      List.fold_left
        (fun (bp, bv) p ->
          let v = stat p.read_ms in
          if v < bv then p, v else bp, bv)
        (List.hd ps, infinity) ps
    in
    report ~n:(Array.length p.read_ms) name "ms" v
  in
  best "p50_ms.low" Stats.p50 lows;
  best "p90_ms.low" Stats.p90 lows;
  best "p50_ms.high" Stats.p50 highs;
  best "p90_ms.high" Stats.p90 highs;
  (* CPU per request at the fixed rates, where the request count is set
     by the schedule rather than by how fast the server ran *)
  let served =
    List.fold_left
      (fun a p -> a + Array.fold_left (fun a o -> if Openloop.ok o then a + 1 else a) 0 p.res.Openloop.outcomes)
      0 (lows @ highs)
  in
  report ~n:served "cpu_ms_per_req" "ms" (!cpu *. 1000. /. float_of_int (max 1 served));
  let rate, sat =
    List.fold_left
      (fun (br, bs) (_, _, x, s) -> if x > br then x, Some s else br, bs)
      (0., None) rounds
  in
  report ~n:(match sat with Some s -> Array.length s.read_ms | None -> 0) "max_rate_rps" "req/s" rate;
  report "peak_rss_mb" "MB" rss;
  let attempted = List.fold_left (fun a p -> a + Array.length p.reqs) 0 phases in
  let failed = List.fold_left (fun a p -> a + failures p) 0 phases in
  let wrong = oracle r inputs phases in
  let live_missing =
    match r.Spec.route with
    | Spec.Live ->
      let store = Filename.concat inputs.Spec.dir "store" in
      let writes = Array.concat (List.map (fun p -> p.write_ms) phases) in
      report ~n:(Array.length writes) "write_p50_ms" "ms" (Stats.p50 writes);
      report ~n:(Array.length writes) "write_p90_ms" "ms" (Stats.p90 writes);
      let missing, ratio = durability inputs store phases in
      report "disk_bytes_per_user_byte" "ratio" ratio;
      missing
    | Spec.Search | Spec.Shards -> 0
  in
  let failed = failed + wrong + live_missing in
  report ~n:attempted "fail_ratio" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
  attempted, failed

(* ------------------------------------------------------------------ *)
(* Traced mode: a served window for the cache/server counters, then the
   in-process replay (Replay) for the layer spans. *)

let traced ~exe (r : Spec.record) inputs ~seed ~seconds =
  let s = float_of_int seconds in
  let srv, _ = start_server ~exe inputs in
  let port = srv.Server.port in
  warm r inputs port;
  let st = { next_reads = Spec.read_stream r inputs ~seed; writes = 0; reads = 0 } in
  let before = Server.scrape srv in
  let high = run_phase r st ~port ~label:"high" ~rate:r.Spec.high_rps ~duration:(0.3 *. s) in
  let after = Server.scrape srv in
  Server.stop srv;
  let d ?label name = Server.family after ?label name -. Server.family before ?label name in
  let ratio a b = if b <= 0. then 0. else a /. b in
  let page_h = d ~label:"cache=\"page\"" "extract_cache_hits_total"
  and page_m = d ~label:"cache=\"page\"" "extract_cache_misses_total" in
  let snip_h = d ~label:"cache=\"snippet\"" "extract_cache_hits_total"
  and snip_m = d ~label:"cache=\"snippet\"" "extract_cache_misses_total" in
  let reads = Array.length high.read_ms in
  report "cache.page_hit_ratio" "ratio" (ratio page_h (page_h +. page_m));
  report "cache.snippet_hit_ratio" "ratio" (ratio snip_h (snip_h +. snip_m));
  report "cache.evictions" "count" (d "extract_cache_evictions");
  report ~n:reads "search.engine_runs_per_req" "ratio"
    (ratio (d "extract_queries_total") (float_of_int reads));
  let waits = d "extract_queue_wait_seconds_count" in
  report ~n:(int_of_float waits) "server.queue_wait_mean_ms" "ms"
    (1000. *. ratio (d "extract_queue_wait_seconds_sum") waits);
  report "server.shed" "count" (d "extract_accept_queue_shed_total" +. d "extract_requests_shed_total");
  report "server.queue_depth_peak" "count" (Server.family after "extract_accept_queue_depth_peak");
  report "server.keepalive_reuses" "count" (d "extract_keepalive_reuses_total");
  report ~n:(Array.length high.late_ms) "loadgen.late_p99_ms" "ms" (Stats.quantile high.late_ms 0.99);
  report "loadgen.backlog_max" "count" (float_of_int high.res.Openloop.backlog_max);
  let served_failed = failures high in
  let replay =
    Replay.run r inputs ~kinds:high.kinds ~budget:(0.4 *. s) ~report:(fun ?n name u v ->
        report ?n name u v)
  in
  Array.length high.reqs + replay.Replay.attempted, served_failed + replay.Replay.failed

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "_build/default/bin/extract_cli.exe" in
  let record = ref "perfbench/workloads.json" and work = ref ".perfbench" in
  Arg.parse
    [ "--workload", Arg.Set_string workload, "NAME workload to run";
      "--seed", Arg.Set_int seed, "N request-stream seed";
      "--seconds", Arg.Set_int seconds, "S measured seconds";
      "--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run";
      "--server", Arg.Set_string exe, "PATH the extract executable";
      "--record", Arg.Set_string record, "PATH the frozen workload record";
      "--work", Arg.Set_string work, "DIR scratch directory for corpora and stores" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* stopping the benchmark stops its server too (Server's at_exit) *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let records = Spec.load_records !record in
  let r =
    match List.find_opt (fun (x : Spec.record) -> x.Spec.name = !workload) records with
    | Some r -> r
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (x : Spec.record) -> x.Spec.name) records));
      exit 2
  in
  let t0 = Unix.gettimeofday () in
  let inputs = Spec.prepare ~work:!work r in
  note "workload %s: %d nodes, %d distinct targets (record: %d, %d); caches: 64 pages, 256 snippet entries; inputs in %.2f s"
    r.Spec.name inputs.Spec.nodes (Array.length inputs.Spec.targets) r.Spec.nodes
    r.Spec.distinct_targets (Unix.gettimeofday () -. t0);
  let record_ok =
    inputs.Spec.nodes = r.Spec.nodes && Array.length inputs.Spec.targets = r.Spec.distinct_targets
  in
  if not record_ok then note "record mismatch: the generated inputs differ from the workload record";
  let attempted, failed =
    if !trace = 0 then e2e ~exe:!exe r inputs ~seed:!seed ~seconds:!seconds
    else traced ~exe:!exe r inputs ~seed:!seed ~seconds:!seconds
  in
  final_line ~correct:(record_ok && failed = 0) ~attempted ~failed
    (if !trace = 0 then Names.end_to_end else Names.per_layer)
