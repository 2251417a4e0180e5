(* The workloads: their frozen record (perfbench/workloads.json), the
   corpus and store each one serves, and the seeded request streams. *)

module Pipeline = Extract_snippet.Pipeline
module Shard_set = Extract_snippet.Shard_set
module Live_corpus = Extract_snippet.Live_corpus
module Document = Extract_store.Document
module Retail = Extract_datagen.Retail
module Workload = Extract_datagen.Workload
module Gen = Extract_datagen.Gen
module Printer = Extract_xml.Printer
module Xml = Extract_xml.Types
module Prng = Extract_util.Prng
module Zipf = Extract_util.Zipf

type route = Search | Shards | Live

(* One workload as frozen in the record. *)
type record = {
  name : string;
  route : route;
  clothes : int; (* retail scaled to this many clothes; 0 = default retail *)
  distinct_targets : int; (* recorded; checked against the generated inputs *)
  nodes : int; (* recorded corpus node count; checked likewise *)
  zipf : float; (* skew of the target popularity; 0 = uniform *)
  limit : int option; (* the limit= parameter of the route *)
  low_rps : float;
  high_rps : float;
  write_rps : float; (* live-mixed only *)
}

let route_of_string = function
  | "search" -> Search
  | "shards" -> Shards
  | "live" -> Live
  | s -> failwith ("unknown route " ^ s)

let load_records path =
  let j = Jread.parse (In_channel.with_open_bin path In_channel.input_all) in
  List.map
    (fun w ->
      let num k = Jread.num (Jread.get k w) in
      let rates = Jread.get "rates_rps" w in
      {
        name = Jread.str (Jread.get "name" w);
        route = route_of_string (Jread.str (Jread.get "route" w));
        clothes = int_of_float (num "clothes");
        distinct_targets = int_of_float (num "distinct_targets");
        nodes = int_of_float (num "corpus_nodes");
        zipf = num "zipf_skew";
        limit =
          (match Jread.member "limit" w with
          | Some (Jread.Num f) -> Some (int_of_float f)
          | _ -> None);
        low_rps = Jread.num (Jread.get "low" rates);
        high_rps = Jread.num (Jread.get "high" rates);
        write_rps =
          (match Jread.member "write" rates with Some (Jread.Num f) -> f | _ -> 0.);
      })
    (Jread.list (Jread.get "workloads" j))

(* ------------------------------------------------------------------ *)
(* Inputs *)

type target = { query : string; bound : int }

(* one scheduled request of a workload *)
type kind = Read of target | Write of int

type inputs = {
  dir : string; (* this workload's scratch directory *)
  serve_args : string list; (* the CLI's serve arguments after the options *)
  corpus_xml : string list; (* the XML the served state was built from *)
  db : Pipeline.t option; (* the analyzed corpus, for search and shards *)
  shard_dir : string option;
  live_seed : string option; (* pristine seeded live store, copied per server *)
  nodes : int;
  targets : target array;
  costs : float array; (* per-target work proxy, for stratified sampling *)
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun f ->
      write_file (Filename.concat dst f)
        (In_channel.with_open_bin (Filename.concat src f) In_channel.input_all))
    (Sys.readdir src)

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then acc else acc + (Unix.stat p).Unix.st_size)
    0 (Sys.readdir dir)

let encode_query q =
  let b = Buffer.create (String.length q) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> Buffer.add_char b c
      | ' ' -> Buffer.add_char b '+'
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    q;
  Buffer.contents b

(* Every distinct query the datagen workload generator yields on [db],
   in generation order. *)
let distinct_queries dbs =
  let seen = Hashtbl.create 512 in
  List.concat_map
    (fun db ->
      Workload.generate
        { Workload.default with Workload.queries = 4000; seed = 3 }
        (Pipeline.kinds db))
    dbs
  |> List.filter (fun q ->
         let k = String.lowercase_ascii q in
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.add seen k ();
           true
         end)

(* (query, bound) pairs, bound 4..12: the demo lets users pick it *)
let targets_of ?max queries =
  let all =
    List.concat_map (fun q -> List.init 9 (fun b -> { query = q; bound = 4 + b })) queries
  in
  let all =
    match max with
    | None -> all
    | Some k ->
      (* spread the bounds over the first [k] queries' targets *)
      List.mapi (fun i q -> { query = q; bound = 4 + (i mod 9) }) queries
      |> List.filteri (fun i _ -> i < k)
  in
  Array.of_list all

(* Work proxy of a query: the summed size of the result trees the route
   snippets (the first [limit] per database, or all of them). *)
let query_cost ?limit dbs q =
  List.fold_left
    (fun acc db ->
      List.fold_left
        (fun acc r -> acc +. float_of_int (Extract_search.Result_tree.size r))
        acc
        (Pipeline.search ?limit db q))
    0. dbs

let costs_of ?limit dbs targets =
  let memo = Hashtbl.create 512 in
  Array.map
    (fun t ->
      match Hashtbl.find_opt memo t.query with
      | Some c -> c
      | None ->
        let c = query_cost ?limit dbs t.query in
        Hashtbl.add memo t.query c;
        c)
    targets

let retail_doc clothes =
  if clothes = 0 then Retail.generate Retail.default else Retail.scaled clothes

(* A live member: one generated retailer with a marker token the
   durability check searches for. *)
let member_xml ~seed ~marker =
  let doc = Retail.generate { Retail.default with Retail.seed; retailers = 1; with_dtd = false } in
  let root = doc.Xml.root in
  let root =
    match marker with
    | None -> root
    | Some m -> { root with Xml.children = root.Xml.children @ [ Gen.leaf "note" m ] }
  in
  Printer.to_string ~indent:None (Xml.Element root)

let live_members = List.init 8 (fun k -> Printf.sprintf "m%d" k, member_xml ~seed:(42 + k) ~marker:None)

(* The j-th write of the live-mixed stream: rotating names, and a
   compaction in place of every 64th write. *)
let write_marker j = Printf.sprintf "upd%d" j

let write_request j =
  if j mod 64 = 63 then `Compact
  else
    `Add
      ( Printf.sprintf "w%d" (j mod 8),
        member_xml ~seed:(100 + (j mod 16)) ~marker:(Some (write_marker j)) )

let prepare ~work (r : record) =
  let dir = Filename.concat work r.name in
  rm_rf dir;
  mkdir_p dir;
  let args = [ "--port"; "0"; "--workers"; "2" ] in
  match r.route with
  | Search ->
    let xml = Printer.document_to_string ~indent:None (retail_doc r.clothes) in
    let path = Filename.concat dir "retail.xml" in
    write_file path xml;
    let db = Pipeline.of_xml_string xml in
    let queries = distinct_queries [ db ] in
    let targets =
      if r.zipf > 0. then targets_of ~max:r.distinct_targets queries else targets_of queries
    in
    {
      dir;
      serve_args = args @ [ path ];
      corpus_xml = [ xml ];
      db = Some db;
      shard_dir = None;
      live_seed = None;
      nodes = Document.node_count (Pipeline.document db);
      targets;
      costs = costs_of ~limit:25 [ db ] targets;
    }
  | Shards ->
    let xml = Printer.document_to_string ~indent:None (retail_doc r.clothes) in
    let db = Pipeline.of_xml_string xml in
    let targets = targets_of (distinct_queries [ db ]) in
    let sdir = Filename.concat dir "shards" in
    Shard_set.save_dir sdir (Shard_set.split ~shards:4 (Pipeline.document db));
    {
      dir;
      serve_args = args @ [ sdir ];
      corpus_xml = [ xml ];
      db = Some db;
      shard_dir = Some sdir;
      live_seed = None;
      nodes = Document.node_count (Pipeline.document db);
      targets;
      costs = costs_of [ db ] targets;
    }
  | Live ->
    let seed_dir = Filename.concat dir "seed-store" in
    let live = Live_corpus.open_dir seed_dir in
    List.iter (fun (name, xml) -> Live_corpus.add live ~name ~xml) live_members;
    ignore (Live_corpus.compact live);
    let view = Extract_store.Live.view (Live_corpus.store live) in
    Live_corpus.close live;
    let dbs = List.map (fun (_, xml) -> Pipeline.of_xml_string xml) live_members in
    let targets = targets_of (distinct_queries dbs) in
    {
      dir;
      serve_args = args @ [ "--live"; Filename.concat dir "store" ];
      corpus_xml = List.map snd live_members;
      db = None;
      shard_dir = None;
      live_seed = Some seed_dir;
      nodes = Document.node_count view.Extract_store.Live.doc;
      targets;
      costs = costs_of dbs targets;
    }

(* A fresh copy of the seeded store for one server (or replay) to own. *)
let fresh_store inputs =
  match inputs.live_seed with
  | Some seed ->
    let store = Filename.concat inputs.dir "store" in
    copy_dir seed store;
    Some store
  | None -> None

(* ------------------------------------------------------------------ *)
(* Request streams *)

let target_path (r : record) (t : target) =
  let limit = match r.limit with Some k -> Printf.sprintf "&limit=%d" k | None -> "" in
  match r.route with
  | Search -> Printf.sprintf "/search?data=retail&q=%s&bound=%d" (encode_query t.query) t.bound
  | Shards ->
    Printf.sprintf "/shards/search?q=%s&bound=%d%s" (encode_query t.query) t.bound limit
  | Live -> Printf.sprintf "/live/search?q=%s&bound=%d%s" (encode_query t.query) t.bound limit

(* The seeded read stream, drawn [n] requests at a time. A Zipf
   workload samples target ranks with the seed (target i has rank i). A
   uniform workload takes a systematic sample: the targets are ordered
   by their work proxy and cut into [n] equal strata, one target is
   taken at the same point of each stratum, and the seed shuffles their
   order. Every
   phase of [n] requests thus covers the whole cost range of the targets
   in the same proportions, and runs with different seeds differ in
   arrival order, interleaving and cache state rather than in which
   expensive queries they happened to draw. *)
let read_stream (r : record) inputs ~seed =
  let rng = Prng.create ((seed * 7919) + 17) in
  let n_targets = Array.length inputs.targets in
  if r.zipf > 0. then begin
    let z = Zipf.create ~n:n_targets ~skew:r.zipf in
    fun n -> Array.init n (fun _ -> inputs.targets.(Zipf.sample z rng))
  end
  else begin
    let order = Array.init n_targets Fun.id in
    Array.stable_sort (fun a b -> Float.compare inputs.costs.(a) inputs.costs.(b)) order;
    let calls = ref 0 in
    fun n ->
      (* the c-th draw takes the same point of every stratum, starting
         at the middle and moving by the golden ratio, so successive
         phases see different targets *)
      let offset = Float.rem (0.5 +. (0.6180339887 *. float_of_int !calls)) 1. in
      incr calls;
      let picks =
        Array.init n (fun k ->
            let i = int_of_float ((float_of_int k +. offset) *. float_of_int n_targets /. float_of_int n) in
            inputs.targets.(order.(min (n_targets - 1) i)))
      in
      Prng.shuffle rng picks;
      picks
  end
