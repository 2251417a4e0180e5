(* The metrics each mode reports on its last line, with their units, in
   BENCHMARK.json order. The self-test checks the two agree.

   The latency and throughput figures of a --trace 0 run (p50/p90 at the
   low and high rates, max_rate_rps) are printed but not listed: on a
   shared two-core virtual machine each of them spread by more than 0.25
   of its median over ten seeds on at least one workload (up to 1.4),
   wider than the largest bound a gate may use, while these three
   stayed within 0.16 (setup_s's spread is not gated). *)

let end_to_end = [ "setup_s", "s"; "cpu_ms_per_req", "ms"; "peak_rss_mb", "MB" ]

let per_layer =
  [ "xml.parse_s", "s"; "store.index_build_s", "s"; "store.analyze_s", "s";
    "store.lookup_us", "us"; "store.postings_per_query", "count"; "search.eval_ctx_us", "us";
    "search.engine_ms", "ms"; "search.results_per_query", "count"; "snippet.feature_ms", "ms";
    "snippet.ilist_ms", "ms"; "snippet.select_us", "us"; "snippet.return_entity_us", "us";
    "snippet.result_key_us", "us"; "snippet.render_ms", "ms";
    "segments.generated_per_query", "count"; "segments.useful_ratio", "ratio";
    "cache.page_hit_ratio", "ratio"; "cache.snippet_hit_ratio", "ratio";
    "cache.evictions", "count"; "search.engine_runs_per_req", "ratio"; "server.handle_ms", "ms";
    "server.queue_wait_mean_ms", "ms"; "server.shed", "count"; "server.queue_depth_peak", "count";
    "server.keepalive_reuses", "count"; "gc.minor_words_per_req", "words";
    "gc.major_per_1k_req", "count"; "loadgen.late_p99_ms", "ms"; "loadgen.backlog_max", "count";
    "trace.overhead_ratio", "ratio"; "trace.coverage_ratio", "ratio" ]
