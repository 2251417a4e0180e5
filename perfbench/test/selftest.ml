(* Self-test of the benchmark:
   - a tiny-corpus run in each mode prints every declared metric with
     its unit, and its last line is the result JSON with exactly the
     declared metrics;
   - the declared metrics are the ones BENCHMARK.json lists;
   - the answer oracle counts a corrupted served body as a failure.

   Usage: selftest.exe BENCH_EXE SERVER_EXE TINY_RECORD BENCHMARK_JSON *)

module Corpus = Extract_snippet.Corpus
module Demo_server = Extract_server.Demo_server

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("selftest: " ^ msg); exit 1) fmt

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* one tiny run; returns its stdout lines *)
let run_bench ~bench ~server ~record ~trace =
  let out = Printf.sprintf "selftest-trace%d.out" trace in
  let cmd =
    Filename.quote_command bench ~stdout:out
      [ "--workload"; "tiny"; "--seed"; "3"; "--seconds"; "2"; "--trace"; string_of_int trace;
        "--server"; server; "--record"; record; "--work"; "selftest-work" ]
  in
  match Sys.command cmd with
  | 0 -> read_lines out
  | code -> fail "trace %d run exited with %d" trace code

let check_run ~trace lines declared =
  let last = List.nth lines (List.length lines - 1) in
  let j = try Jread.parse last with Jread.Error e -> fail "last line is not JSON (%s): %s" e last in
  (match j with
  | Jread.Obj fields ->
    let keys = List.sort compare (List.map fst fields) in
    if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
      fail "result keys are %s" (String.concat "," keys)
  | _ -> fail "result is not an object");
  if Jread.get "correct" j <> Jread.Bool true then fail "trace %d run not correct: %s" trace last;
  if Jread.num (Jread.get "attempted" j) < 1. then fail "nothing attempted";
  if Jread.num (Jread.get "failed" j) <> 0. then fail "trace %d run had failures" trace;
  let metrics = Jread.get "metrics" j in
  (match metrics with
  | Jread.Obj fields when List.length fields = List.length declared -> ()
  | _ -> fail "trace %d: the result does not carry exactly the declared metrics" trace);
  List.iter
    (fun (name, unit_) ->
      let m = try Jread.get name metrics with Jread.Error _ -> fail "metric %s missing" name in
      if Jread.str (Jread.get "unit" m) <> unit_ then fail "metric %s has the wrong unit" name;
      if not (Float.is_finite (Jread.num (Jread.get "value" m))) then fail "metric %s not finite" name;
      (* the human-readable line names the metric and its unit *)
      let printed =
        List.exists
          (fun l ->
            match String.split_on_char ' ' l |> List.filter (( <> ) "") with
            | "metric" :: n :: _ :: u :: _ -> n = name && u = unit_
            | _ -> false)
          lines
      in
      if not printed then fail "metric %s is not printed with its unit" name)
    declared

let check_benchmark_json path =
  let j = Jread.parse (In_channel.with_open_bin path In_channel.input_all) in
  let listed key =
    List.map
      (fun m -> Jread.str (Jread.get "name" m), Jread.str (Jread.get "unit" m))
      (Jread.list (Jread.get key j))
  in
  if listed "end_to_end" <> Names.end_to_end then fail "BENCHMARK.json end_to_end differs";
  if listed "per_layer" <> Names.per_layer then fail "BENCHMARK.json per_layer differs"

let check_oracle ~record =
  let r = List.hd (Spec.load_records record) in
  let inputs = Spec.prepare ~work:"selftest-oracle" r in
  let db = Option.get inputs.Spec.db in
  let server = Demo_server.create (Corpus.add Corpus.empty ~name:"retail" db) in
  let t = inputs.Spec.targets.(0) in
  let served = (Demo_server.handle server (Spec.target_path r t)).Demo_server.body in
  let corrupted = Bytes.of_string served in
  let k = Bytes.length corrupted / 2 in
  Bytes.set corrupted k (if Bytes.get corrupted k = 'x' then 'y' else 'x');
  match Oracle.check r inputs [ t, served; t, Bytes.to_string corrupted ] with
  | 2, 1 -> ()
  | checked, wrong -> fail "oracle: %d checked, %d wrong (expected 2, 1)" checked wrong

let () =
  match Sys.argv with
  | [| _; bench; server; record; benchmark_json |] ->
    check_benchmark_json benchmark_json;
    check_run ~trace:0 (run_bench ~bench ~server ~record ~trace:0) Names.end_to_end;
    check_run ~trace:1 (run_bench ~bench ~server ~record ~trace:1) Names.per_layer;
    check_oracle ~record;
    print_endline "selftest: ok"
  | _ -> fail "usage: selftest.exe BENCH SERVER RECORD BENCHMARK_JSON"
