(* Domain-safety analyzer: the headline pass of extract-lint.

   The server runs a pool of OCaml 5 domains (Demo_server), the only
   place a query runs on another domain; the runtime collector samples
   from a thread, and the load harness drives real sockets from threads.
   Any top-level mutable state reachable from that code is shared across
   domains, and the OCaml memory model makes unguarded access a data
   race, not just a stale read.

   The pass works in three layers:

   1. Catalogue. Every scanned module is classified:
      - a *domain root* spawns concurrency (contains Domain.spawn or
        Thread.create);
      - a *concurrency-bearing* module either uses a synchronization
        primitive (Mutex/Condition/Atomic/Domain.DLS) or is on the baked
        roster of types whose locking story lives at the use site (Lru,
        Snippet_cache);
      - a *domain-reachable* module is referenced, transitively, from a
        root. The analysis is lexical: references are the uppercase
        segments of qualified paths resolved against scanned file names.
      The catalogue of shared mutable state in those modules is emitted
      as doc/CONCURRENCY.md (--concurrency-doc).

   2. Discipline (rule domain-safety). Every top-level mutable binding
      (ref, Hashtbl, Queue, Buffer, Bytes, array, lazy) in a
      domain-reachable or bearing module, and every mutable/container
      record field in a bearing module, must be one of:
        (a) an Atomic.t or a Domain.DLS key (recognized structurally);
        (b) annotated [(* guarded-by: <mutex> *)] where <mutex> resolves
            to a real Mutex.create binding or [: Mutex.t] field (rule
            stale-annotation checks the resolution);
        (c) annotated [(* domain-local *)], [(* init-only *)] or
            [(* read-only *)] with a justification.
      Fields of internally synchronized types (Sharded_lru.t,
      Snippet_cache.t, Shard_set.t) are accepted as safe. Annotations cover their own
      line and the next, so they can trail the site or sit above it; a
      type-level annotation covers every field of the declaration.

   3. Lock hygiene (rules lock-pairing, lock-raise). Within each
      top-level definition, a Mutex.lock with no matching unlock (or
      vice versa) is flagged, and so is any raise/failwith/invalid_arg
      issued while the linear scan says a lock is held — the sanctioned
      shapes are Mutex.protect and the
      [match f () with x -> unlock; x | exception e -> unlock; raise e]
      pattern, both of which pass because every path unlocks before
      raising. *)

open Lint_rule
module S = Lint_source

(* ------------------------------------------------------------------ *)
(* Structure items: top-level chunks keyed by their column-0 keyword    *)

let structure_keywords =
  [ "let"; "type"; "module"; "open"; "include"; "exception"; "external"; "val"; "and" ]

type item = {
  kind : string; (* "let" | "type" | ... with "and" resolved to its chain *)
  start : int; (* token index of the keyword *)
  stop : int; (* token index one past the item *)
}

let structure_items (tokens : S.token array) =
  let n = Array.length tokens in
  let boundaries = ref [] in
  for k = n - 1 downto 0 do
    if tokens.(k).S.col = 0 && List.mem tokens.(k).S.text structure_keywords then
      boundaries := k :: !boundaries
  done;
  let rec build last_kind = function
    | [] -> []
    | k :: rest ->
      let kw = tokens.(k).S.text in
      let kind = if kw = "and" then last_kind else kw in
      let stop = match rest with [] -> n | k' :: _ -> k' in
      { kind; start = k; stop } :: build kind rest
  in
  build "" !boundaries

(* ------------------------------------------------------------------ *)
(* Token classification helpers                                        *)

let keywords_never_args =
  [
    "in"; "then"; "else"; "done"; "with"; "do"; "begin"; "end"; "match"; "try"; "let"; "fun";
    "function"; "if"; "for"; "while"; "and"; "rec";
  ]

let is_lower_ident text =
  text <> ""
  && (text.[0] = '_' || (text.[0] >= 'a' && text.[0] <= 'z'))
  && (not (String.contains text '.'))
  && not (List.mem text keywords_never_args)

let type_matches candidates tok =
  List.exists (fun c -> tok = c || Filename.check_suffix tok ("." ^ c)) candidates

let spawn_tokens = [ "Domain.spawn"; "Thread.create" ]

let sync_prefixes = [ "Mutex."; "Condition."; "Atomic."; "Domain.DLS" ]

(* modules whose instances are mutable but whose locking story lives at
   the use site (see lru.mli / sharded_lru.mli): always catalogued *)
let bearing_roster = [ "Lru"; "Snippet_cache" ]

let safe_field_types = [ "Atomic.t"; "Domain.DLS.key" ]

(* Shard_set.t is on the roster because its synchronization story is
   internal to the module: the shard array is built once and never
   mutated, and [Shard_set.run] reads it on the caller's domain without
   spawning any — holders of a shard set need no locking of their
   own. *)
let internal_sync_types = [ "Sharded_lru.t"; "Snippet_cache.t"; "Shard_set.t" ]

let container_field_types =
  [ "ref"; "array"; "bytes"; "Hashtbl.t"; "Queue.t"; "Buffer.t"; "Bytes.t"; "Stack.t"; "Lru.t" ]

(* creation expressions, by the token that builds them *)
let container_creators =
  [
    "ref", "ref";
    "Hashtbl.create", "Hashtbl";
    "Queue.create", "Queue";
    "Buffer.create", "Buffer";
    "Bytes.create", "Bytes";
    "Bytes.make", "Bytes";
    "Array.make", "array";
    "Array.init", "array";
    "Array.create_float", "array";
    "[|", "array literal";
    "Stack.create", "Stack";
    "lazy", "lazy";
  ]

let raisers = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

(* ------------------------------------------------------------------ *)
(* Per-file scans                                                      *)

type discipline =
  | Auto of string (* structurally safe: "Atomic", "Domain.DLS" *)
  | Guard of string (* it IS a mutex/condition: what others guard with *)
  | Guarded of string
  | Local
  | Init
  | ReadOnly
  | Internal of string (* internally synchronized abstraction *)
  | Unsafe of string (* no discipline established; payload = remedy hint *)

type site = {
  s_path : string;
  s_module : string;
  s_line : int;
  s_name : string;
  s_kind : string;
  (* lines where a discipline annotation is accepted for this site *)
  s_ann_lines : int list;
  s_disc : discipline;
}

let site fu ~line ~name ~kind ~ann_lines ~disc =
  {
    s_path = fu.path;
    s_module = S.module_name fu.path;
    s_line = line;
    s_name = name;
    s_kind = kind;
    s_ann_lines = ann_lines;
    s_disc = disc;
  }

let find_eq tokens s e =
  (* first "=" at bracket depth 0 in [s, e) *)
  let depth = ref 0 in
  let found = ref (-1) in
  let k = ref s in
  while !found < 0 && !k < e do
    (match tokens.(!k).S.text with
    | "(" | "[" | "{" | "[|" -> incr depth
    | ")" | "]" | "}" | "|]" -> decr depth
    | "=" when !depth = 0 -> found := !k
    | _ -> ());
    incr k
  done;
  !found

(* top-level mutable-value sites of one file; also returns the names of
   mutexes defined here (for guarded-by resolution) *)
let scan_bindings (fu : file_unit) =
  let tokens = fu.lexed.S.tokens in
  let guards = ref [] in
  let sites = ref [] in
  List.iter
    (fun it ->
      if it.kind = "let" then begin
        let idx = ref (it.start + 1) in
        if !idx < it.stop && tokens.(!idx).S.text = "rec" then incr idx;
        if !idx < it.stop then begin
          let name =
            if
              !idx + 1 < it.stop
              && tokens.(!idx).S.text = "("
              && tokens.(!idx + 1).S.text = ")"
            then begin
              idx := !idx + 2;
              "()"
            end
            else begin
              let t = tokens.(!idx).S.text in
              incr idx;
              t
            end
          in
          if name = "()" || (name <> "" && S.is_ident_start name.[0]) then begin
            let eq = find_eq tokens !idx it.stop in
            if eq >= 0 then begin
              let is_value = eq = !idx || tokens.(!idx).S.text = ":" in
              if is_value then begin
                (* static region: stop at the first closure *)
                let stop = ref (eq + 1) in
                while
                  !stop < it.stop
                  && tokens.(!stop).S.text <> "fun"
                  && tokens.(!stop).S.text <> "function"
                do
                  incr stop
                done;
                let has text =
                  let found = ref false in
                  for k = eq + 1 to !stop - 1 do
                    if tokens.(k).S.text = text then found := true
                  done;
                  !found
                in
                let line = tokens.(it.start).S.line in
                let add kind disc =
                  sites := site fu ~line ~name ~kind ~ann_lines:[ line ] ~disc :: !sites
                in
                if has "Domain.DLS.new_key" then add "Domain.DLS key" (Auto "Domain.DLS")
                else if has "Atomic.make" then add "Atomic" (Auto "Atomic")
                else begin
                  let container =
                    let found = ref None in
                    for k = !stop - 1 downto eq + 1 do
                      match List.assoc_opt tokens.(k).S.text container_creators with
                      | Some kind -> found := Some kind
                      | None -> ()
                    done;
                    !found
                  in
                  match container with
                  | Some kind ->
                    add kind
                      (Unsafe
                         "use Atomic/Domain.DLS, or annotate (* guarded-by: <mutex> *), (* \
                          domain-local *), (* init-only *) or (* read-only *) with a \
                          justification")
                  | None ->
                    if has "Mutex.create" then begin
                      guards := name :: !guards;
                      add "Mutex (guard)" (Guard "mutex")
                    end
                    else if has "Condition.create" then add "Condition" (Guard "condition")
                end
              end
            end
          end
        end
      end)
    (structure_items tokens);
  (!sites, !guards)

(* record fields of one file's top-level type declarations; also returns
   the names of [: Mutex.t] fields (guards) *)
let scan_fields (fu : file_unit) =
  let tokens = fu.lexed.S.tokens in
  let guards = ref [] in
  let sites = ref [] in
  List.iter
    (fun it ->
      if it.kind = "type" then begin
        let eq = find_eq tokens (it.start + 1) it.stop in
        if eq >= 0 then begin
          (* type name: last plain ident before the "=" *)
          let tname = ref "?" in
          for k = it.start + 1 to eq - 1 do
            if is_lower_ident tokens.(k).S.text then tname := tokens.(k).S.text
          done;
          let decl_line = tokens.(it.start).S.line in
          (* walk the body; each "{" opens a record (incl. inline ones) *)
          let k = ref (eq + 1) in
          while !k < it.stop do
            if tokens.(!k).S.text = "{" then begin
              incr k;
              let in_record = ref true in
              while !in_record && !k < it.stop do
                (* one field: [mutable]? name ":" type-tokens (";"|"}") *)
                let mutable_ = !k < it.stop && tokens.(!k).S.text = "mutable" in
                if mutable_ then incr k;
                if !k < it.stop && is_lower_ident tokens.(!k).S.text then begin
                  let fname = tokens.(!k).S.text in
                  let fline = tokens.(!k).S.line in
                  incr k;
                  if !k < it.stop && tokens.(!k).S.text = ":" then begin
                    incr k;
                    let ftype = ref [] in
                    let depth = ref 0 in
                    let stop_field = ref false in
                    while (not !stop_field) && !k < it.stop do
                      (match tokens.(!k).S.text with
                      | "(" | "[" | "[|" ->
                        incr depth;
                        ftype := tokens.(!k).S.text :: !ftype
                      | ")" | "]" | "|]" ->
                        decr depth;
                        ftype := tokens.(!k).S.text :: !ftype
                      | ";" when !depth = 0 -> stop_field := true
                      | "}" when !depth = 0 ->
                        stop_field := true;
                        in_record := false
                      | t -> ftype := t :: !ftype);
                      incr k
                    done;
                    let ftype = List.rev !ftype in
                    let has_type cands = List.exists (type_matches cands) ftype in
                    let add kind disc =
                      sites :=
                        site fu ~line:fline
                          ~name:(Printf.sprintf "%s.%s" !tname fname)
                          ~kind
                          ~ann_lines:[ fline; decl_line ]
                          ~disc
                        :: !sites
                    in
                    if has_type [ "Mutex.t" ] then begin
                      guards := fname :: !guards;
                      add "Mutex.t field (guard)" (Guard "mutex")
                    end
                    else if has_type [ "Condition.t" ] then
                      add "Condition.t field" (Guard "condition")
                    else if has_type safe_field_types then
                      add
                        (if mutable_ then "mutable Atomic field" else "Atomic/DLS field")
                        (Auto "Atomic")
                    else begin
                      match
                        List.find_opt (fun c -> has_type [ c ]) internal_sync_types
                      with
                      | Some t -> add (t ^ " field") (Internal t)
                      | None ->
                        if mutable_ || has_type container_field_types then
                          add
                            (if mutable_ then "mutable field" else "container field")
                            (Unsafe
                               "annotate the field or its type with (* guarded-by: <mutex> \
                                *) / (* domain-local *) / (* init-only *) / (* read-only \
                                *), or use Atomic.t")
                    end
                  end
                end
                else if !k < it.stop then begin
                  if tokens.(!k).S.text = "}" then in_record := false;
                  incr k
                end
                else in_record := false
              done
            end
            else incr k
          done
        end
      end)
    (structure_items tokens);
  (!sites, !guards)

(* ------------------------------------------------------------------ *)
(* Whole-repo analysis                                                 *)

type analysis = {
  a_roots : (string * int) list; (* path, line of first spawn *)
  a_bearing : string list; (* D: sync primitives or roster *)
  a_reachable : string list; (* R: referenced (transitively) from a root *)
  a_sites : site list; (* catalogue, discipline resolved *)
  a_guards : (string, string list) Hashtbl.t; (* path -> mutex names *)
  a_modules : (string, string list) Hashtbl.t; (* Module -> paths *)
}

let token_module_segments text =
  if text <> "" && S.is_upper text.[0] then
    List.filter (fun seg -> seg <> "" && S.is_upper seg.[0]) (String.split_on_char '.' text)
  else []

let analyze ctx =
  let mls = ctx.mls in
  let modules = Hashtbl.create 64 in
  List.iter
    (fun fu ->
      let m = S.module_name fu.path in
      let existing = Option.value ~default:[] (Hashtbl.find_opt modules m) in
      Hashtbl.replace modules m (fu.path :: existing))
    mls;
  let first_spawn fu =
    Array.fold_left
      (fun acc (tok : S.token) ->
        if acc < 0 && List.mem tok.S.text spawn_tokens then tok.S.line else acc)
      (-1) fu.lexed.S.tokens
  in
  let roots =
    List.filter_map
      (fun fu ->
        let l = first_spawn fu in
        if l >= 0 then Some (fu.path, l) else None)
      mls
  in
  let has_sync fu =
    Array.exists
      (fun (tok : S.token) ->
        List.mem tok.S.text spawn_tokens
        || List.exists
             (fun p ->
               String.length tok.S.text >= String.length p
               && String.sub tok.S.text 0 (String.length p) = p)
             sync_prefixes)
      fu.lexed.S.tokens
  in
  let bearing =
    List.filter_map
      (fun fu ->
        if has_sync fu || List.mem (S.module_name fu.path) bearing_roster then Some fu.path
        else None)
      mls
  in
  (* reachability: BFS over lexical module references from the roots *)
  let refs fu =
    let out = Hashtbl.create 16 in
    Array.iter
      (fun (tok : S.token) ->
        List.iter
          (fun seg ->
            match Hashtbl.find_opt modules seg with
            | Some paths -> List.iter (fun p -> if p <> fu.path then Hashtbl.replace out p ()) paths
            | None -> ())
          (token_module_segments tok.S.text))
      fu.lexed.S.tokens;
    Hashtbl.fold (fun p () acc -> p :: acc) out []
  in
  let by_path = Hashtbl.create 64 in
  List.iter (fun fu -> Hashtbl.replace by_path fu.path fu) mls;
  let reachable = Hashtbl.create 64 in
  let rec visit path =
    if not (Hashtbl.mem reachable path) then begin
      Hashtbl.replace reachable path ();
      match Hashtbl.find_opt by_path path with
      | Some fu -> List.iter visit (refs fu)
      | None -> ()
    end
  in
  List.iter (fun (p, _) -> visit p) roots;
  let reachable_paths = List.filter (fun fu -> Hashtbl.mem reachable fu.path) mls in
  let enforced = Hashtbl.create 64 in
  List.iter (fun fu -> Hashtbl.replace enforced fu.path ()) reachable_paths;
  List.iter (fun p -> Hashtbl.replace enforced p ()) bearing;
  let bearing_set = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace bearing_set p ()) bearing;
  (* guards and sites *)
  let guards = Hashtbl.create 32 in
  let raw_sites = ref [] in
  List.iter
    (fun fu ->
      let bsites, bguards = scan_bindings fu in
      let fsites, fguards = scan_fields fu in
      Hashtbl.replace guards fu.path (bguards @ fguards);
      (* top-level bindings count wherever reachable or bearing; fields
         only in bearing modules (instances of non-bearing modules' types
         are per-query values, confined by construction) *)
      if Hashtbl.mem enforced fu.path then raw_sites := bsites @ !raw_sites;
      if Hashtbl.mem bearing_set fu.path then raw_sites := fsites @ !raw_sites)
    mls;
  (* resolve annotations into disciplines *)
  let resolved =
    List.map
      (fun s ->
        match s.s_disc, Hashtbl.find_opt by_path s.s_path with
        | Unsafe _, Some fu -> (
          let anns = List.concat_map (S.annotations_at fu.lexed) s.s_ann_lines in
          match anns with
          | S.Guarded_by g :: _ -> { s with s_disc = Guarded g }
          | S.Domain_local :: _ -> { s with s_disc = Local }
          | S.Init_only :: _ -> { s with s_disc = Init }
          | S.Read_only :: _ -> { s with s_disc = ReadOnly }
          | [] -> s)
        | _ -> s)
      !raw_sites
  in
  let sites =
    List.sort
      (fun a b ->
        let c = String.compare a.s_path b.s_path in
        if c <> 0 then c else Int.compare a.s_line b.s_line)
      resolved
  in
  {
    a_roots = List.sort (fun (a, _) (b, _) -> String.compare a b) roots;
    a_bearing = List.sort String.compare bearing;
    a_reachable =
      List.sort String.compare (List.map (fun fu -> fu.path) reachable_paths);
    a_sites = sites;
    a_guards = guards;
    a_modules = modules;
  }

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)

let by_path_tbl ctx =
  let t = Hashtbl.create 64 in
  List.iter (fun fu -> Hashtbl.replace t fu.path fu) ctx.mls;
  t

let domain_safety =
  {
    name = "domain-safety";
    synopsis = "shared mutable state without an established concurrency discipline";
    doc =
      "Builds a repo-wide catalogue of shared mutable state: top-level\n\
       refs/Hashtbls/Queues/Buffers/arrays/lazies in modules reachable\n\
       from Domain.spawn / Thread.create sites, and mutable or container\n\
       record fields in concurrency-bearing modules (those using\n\
       Mutex/Condition/Atomic/Domain.DLS, plus Lru and Snippet_cache,\n\
       whose locking story lives at the use site).\n\n\
       Every catalogued site must have an established discipline: be an\n\
       Atomic.t or Domain.DLS key (recognized structurally), or carry one\n\
       of the annotations\n\n\
      \  (* guarded-by: <mutex> *)   mutated only while holding <mutex>\n\
      \  (* domain-local *)          value never crosses a domain boundary\n\
      \  (* init-only *)             written before any domain is spawned\n\
      \  (* read-only *)             created once, never mutated after\n\n\
       on the site's line, the line above, or (for fields) the type\n\
       declaration line, which covers every field of the record. A\n\
       trailing justification after the keyword is encouraged and\n\
       ignored. Fields of internally synchronized types (Sharded_lru.t,\n\
       Snippet_cache.t, Shard_set.t) are safe as-is. The catalogue is\n\
       rendered by\n\
       --concurrency-doc and checked in as doc/CONCURRENCY.md; the @lint\n\
       alias fails on drift (regenerate with dune promote).";
    run =
      (fun ctx ->
        let a = analyze ctx in
        let by_path = by_path_tbl ctx in
        List.concat_map
          (fun s ->
            match s.s_disc, Hashtbl.find_opt by_path s.s_path with
            | Unsafe remedy, Some fu ->
              let acc, add = collector fu in
              add s.s_line "domain-safety"
                (Printf.sprintf "shared mutable state: %s `%s` has no concurrency discipline; %s"
                   s.s_kind s.s_name remedy);
              !acc
            | _ -> [])
          a.a_sites);
  }

(* both lock rules in one linear scan per top-level definition *)
let lock_scan (fu : file_unit) =
  let tokens = fu.lexed.S.tokens in
  let acc, add = collector fu in
  let n = Array.length tokens in
  let lock_key k =
    (* join the same-line lowercase path after Mutex.lock: "t" "lock" -> t.lock *)
    let parts = ref [] in
    let j = ref (k + 1) in
    while
      !j < n
      && tokens.(!j).S.line = tokens.(k).S.line
      && is_lower_ident tokens.(!j).S.text
    do
      parts := tokens.(!j).S.text :: !parts;
      incr j
    done;
    match List.rev !parts with [] -> "<expr>" | parts -> String.concat "." parts
  in
  List.iter
    (fun it ->
      let locks = Hashtbl.create 4 in
      let unlocks = Hashtbl.create 4 in
      let held = Hashtbl.create 4 in
      let held_total = ref 0 in
      let record tbl key line =
        match Hashtbl.find_opt tbl key with
        | Some (c, l0) -> Hashtbl.replace tbl key (c + 1, l0)
        | None -> Hashtbl.replace tbl key (1, line)
      in
      for k = it.start to it.stop - 1 do
        let tok = tokens.(k) in
        match tok.S.text with
        | "Mutex.lock" ->
          let key = lock_key k in
          record locks key tok.S.line;
          Hashtbl.replace held key (Option.value ~default:0 (Hashtbl.find_opt held key) + 1);
          incr held_total
        | "Mutex.unlock" ->
          let key = lock_key k in
          record unlocks key tok.S.line;
          let h = Option.value ~default:0 (Hashtbl.find_opt held key) in
          if h > 0 then begin
            Hashtbl.replace held key (h - 1);
            decr held_total
          end
        | t when List.mem t raisers && !held_total > 0 ->
          let held_keys =
            Hashtbl.fold (fun key c ks -> if c > 0 then key :: ks else ks) held []
            |> List.sort String.compare |> String.concat ", "
          in
          add tok.S.line "lock-raise"
            (Printf.sprintf
               "%s while holding %s; unlock in an exception branch (match ... | exception e -> \
                unlock; raise e) or use Mutex.protect"
               t held_keys)
        | _ -> ()
      done;
      Hashtbl.iter
        (fun key (_, line) ->
          if not (Hashtbl.mem unlocks key) then
            add line "lock-pairing"
              (Printf.sprintf
                 "Mutex.lock %s without a matching Mutex.unlock in this definition (did you \
                  mean Mutex.protect?)"
                 key))
        locks;
      Hashtbl.iter
        (fun key (_, line) ->
          if not (Hashtbl.mem locks key) then
            add line "lock-pairing"
              (Printf.sprintf "Mutex.unlock %s without a matching Mutex.lock in this definition"
                 key))
        unlocks)
    (structure_items tokens);
  !acc

let run_lock_rule rule_name ctx =
  List.concat_map
    (fun fu -> List.filter (fun v -> v.rule = rule_name) (lock_scan fu))
    ctx.mls

let lock_pairing =
  {
    name = "lock-pairing";
    synopsis = "Mutex.lock/unlock without its counterpart in the same definition";
    doc =
      "Within each top-level definition, every mutex that is locked must\n\
       also be unlocked (and vice versa). The canonical shape\n\n\
      \  Mutex.lock t.lock;\n\
      \  match f () with\n\
      \  | v -> Mutex.unlock t.lock; v\n\
      \  | exception e -> Mutex.unlock t.lock; raise e\n\n\
       passes (one lock, two unlocks: every path unlocks). A lock with\n\
       zero unlocks in the definition leaks the mutex on every path;\n\
       prefer Mutex.protect when the critical section is a simple thunk.\n\
       Keys are matched lexically on the argument expression, so lock and\n\
       unlock must name the mutex the same way.";
    run = run_lock_rule "lock-pairing";
  }

let lock_raise =
  {
    name = "lock-raise";
    synopsis = "raise/failwith/invalid_arg while a mutex is held";
    doc =
      "A raise executed between Mutex.lock and Mutex.unlock leaks the\n\
       lock: every later locker deadlocks. The analysis is a linear token\n\
       scan over the definition, so the sanctioned exception-branch shape\n\
       (unlock before the re-raise) passes, and code that raises\n\
       mid-section is flagged. Wrap the critical section in\n\
       Mutex.protect, or unlock in an [| exception e ->] branch first.";
    run = run_lock_rule "lock-raise";
  }

let stale_annotation =
  {
    name = "stale-annotation";
    synopsis = "guarded-by annotation that names no known mutex";
    doc =
      "Every (* guarded-by: <mutex> *) annotation must resolve: <mutex>\n\
       is either a name defined in the same file (a top-level Mutex.create\n\
       binding or a [: Mutex.t] record field), or a qualified\n\
       Module.name resolved against the scanned tree (e.g.\n\
       Sharded_lru.lock). An annotation that resolves to nothing is worse\n\
       than none at all — it documents a guarantee nobody enforces —\n\
       so it is an error, not a warning.";
    run =
      (fun ctx ->
        let a = analyze ctx in
        List.concat_map
          (fun fu ->
            let acc, add = collector fu in
            List.iter
              (fun (line, ann) ->
                match ann with
                | S.Guarded_by "" ->
                  add line "stale-annotation" "guarded-by annotation without a mutex name"
                | S.Guarded_by g -> (
                  let name, module_seg =
                    match List.rev (String.split_on_char '.' g) with
                    | last :: [] -> last, None
                    | last :: m :: _ -> last, Some m
                    | [] -> g, None
                  in
                  let candidate_paths =
                    match module_seg with
                    | None -> [ fu.path ]
                    | Some m -> Option.value ~default:[] (Hashtbl.find_opt a.a_modules m)
                  in
                  match candidate_paths with
                  | [] ->
                    add line "stale-annotation"
                      (Printf.sprintf "guarded-by: %s refers to a module outside the scanned tree"
                         g)
                  | paths ->
                    let resolves =
                      List.exists
                        (fun p ->
                          List.mem name
                            (Option.value ~default:[] (Hashtbl.find_opt a.a_guards p)))
                        paths
                    in
                    if not resolves then
                      add line "stale-annotation"
                        (Printf.sprintf
                           "stale guarded-by: no mutex named `%s` (expected a top-level \
                            Mutex.create binding or a `: Mutex.t` field in %s)"
                           g
                           (String.concat ", " paths)))
                | S.Domain_local | S.Init_only | S.Read_only -> ())
              fu.lexed.S.annotation_sites;
            !acc)
          ctx.mls);
  }

(* ------------------------------------------------------------------ *)
(* doc/CONCURRENCY.md                                                  *)

let describe_discipline = function
  | Auto what -> Printf.sprintf "`%s` (structural)" what
  | Guard what -> Printf.sprintf "guard (%s)" what
  | Guarded g -> Printf.sprintf "guarded by `%s`" g
  | Local -> "domain-local"
  | Init -> "init-only"
  | ReadOnly -> "read-only"
  | Internal t -> Printf.sprintf "internally synchronized (`%s`)" t
  | Unsafe _ -> "**UNSAFE** (no discipline)"

let concurrency_doc ctx =
  let a = analyze ctx in
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  p "# Concurrency discipline — shared-state catalogue\n\n";
  p
    "Generated by `extract-lint --concurrency-doc` (the domain-safety\n\
     analyzer); `dune build @lint` fails if this file drifts from the\n\
     source tree. Regenerate with `dune build @lint` + `dune promote`.\n\
     Rule semantics and the annotation grammar: DESIGN.md §13, `extract-lint\n\
     --explain-rule domain-safety`.\n\n";
  p "## Domain roots\n\n";
  p "Modules that spawn concurrency (`Domain.spawn` / `Thread.create`):\n\n";
  List.iter (fun (path, line) -> p "- `%s` (first spawn at line %d)\n" path line) a.a_roots;
  p "\n## Concurrency-bearing modules\n\n";
  p
    "Modules using a synchronization primitive (Mutex/Condition/Atomic/\n\
     Domain.DLS) or on the analyzer's roster of use-site-locked types;\n\
     their mutable record fields are catalogued below. %d modules are\n\
     lexically reachable from the roots and have their top-level state\n\
     catalogued too.\n\n"
    (List.length a.a_reachable);
  List.iter (fun path -> p "- `%s`\n" path) a.a_bearing;
  p "\n## Shared-state catalogue\n\n";
  p "| Module | Site | Kind | Discipline | Location |\n";
  p "|---|---|---|---|---|\n";
  List.iter
    (fun s ->
      p "| %s | `%s` | %s | %s | %s:%d |\n" s.s_module s.s_name s.s_kind
        (describe_discipline s.s_disc)
        s.s_path s.s_line)
    a.a_sites;
  p "\n";
  let unsafe = List.filter (fun s -> match s.s_disc with Unsafe _ -> true | _ -> false) a.a_sites in
  if unsafe = [] then
    p "All %d catalogued sites have an established discipline.\n" (List.length a.a_sites)
  else p "**%d of %d sites have no discipline** — `dune build @lint` fails.\n"
      (List.length unsafe) (List.length a.a_sites);
  Buffer.contents buf
