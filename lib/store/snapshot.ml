module Faults = Extract_util.Faults
module Registry = Extract_obs.Registry

let packs_total =
  Registry.counter ~help:"Snapshots written" "extract_snapshot_packs_total"

let maps_total =
  Registry.counter ~help:"Snapshots mapped" "extract_snapshot_maps_total"

(* residency proxy: bytes this process has mmap'd from snapshots since
   start (mappings live until the bigarrays are collected, so this is an
   upper bound on snapshot-backed address space, not RSS) *)
let mapped_bytes = Atomic.make 0

let mapped_bytes_gauge =
  Registry.gauge ~help:"Bytes of snapshot sections mapped since process start"
    "extract_snapshot_mapped_bytes"

let magic = "XTRSNAP2"

let version = 2

(* An asymmetric byte pattern: read back through a native-endian fixed64
   on a foreign-endian machine it comes out reversed, which is the whole
   point — varints cannot carry that signal. *)
let endian_probe = 0x00FF01FE02FD03FCL

(* Every section starts on a page boundary so [Unix.map_file] can map it
   directly; the header owns the first page. *)
let page = 4096

let align n = (n + page - 1) / page * page

(* Section names, in file order. The int columns and the text blob are
   the mappable bulk; kinds/meta/index/members are small and read
   conventionally. The arena is every section before "index". *)
let arena_sections = [ "tag"; "parent"; "depth"; "size"; "kinds"; "textoff"; "textblob"; "meta" ]

let section_names = arena_sections @ [ "index"; "members" ]

type section = {
  name : string;
  offset : int;
  length : int; (* exact byte length, before padding *)
  md5 : string; (* hex digest of the exact bytes *)
}

type header = {
  node_count : int;
  element_count : int;
  fingerprint : string;
  sections : section list;
}

type generation = {
  number : int;
  members : (string * Document.node) list;
}

(* The arena's identity: one digest over its sections' digests, so it
   costs nothing beyond the digests the header records anyway. *)
let fingerprint_of_digests digests = Digest.to_hex (Digest.string (String.concat "" digests))

let hex_md5 body = Digest.to_hex (Digest.string body)

(* ------------------------------------------------------------------ *)
(* Encoding *)

let int_arr_bytes (a : Document.int_arr) =
  let n = Bigarray.Array1.dim a in
  let buf = Buffer.create (n * 8) in
  for i = 0 to n - 1 do
    Buffer.add_int64_ne buf (Int64.of_int (Bigarray.Array1.unsafe_get a i))
  done;
  Buffer.contents buf

let char_arr_bytes (a : Document.char_arr) =
  let n = Bigarray.Array1.dim a in
  String.init n (fun i -> Bigarray.Array1.unsafe_get a i)

let meta_payload (src : Document.Flat.source) =
  let w = Codec.writer () in
  (match src.Document.Flat.dtd_source with
  | None -> Codec.write_varint w 0
  | Some s ->
    Codec.write_varint w 1;
    Codec.write_string w s);
  Codec.write_varint w (Array.length src.Document.Flat.tag_names);
  Array.iter (Codec.write_string w) src.Document.Flat.tag_names;
  Codec.contents w

(* the arena sections' bodies, in file order *)
let arena_bodies doc =
  let src = Document.Flat.to_source doc in
  ( src,
    [
      "tag", int_arr_bytes src.Document.Flat.tag;
      "parent", int_arr_bytes src.Document.Flat.parent;
      "depth", int_arr_bytes src.Document.Flat.depth;
      "size", int_arr_bytes src.Document.Flat.size;
      "kinds", Bytes.to_string src.Document.Flat.kinds;
      "textoff", int_arr_bytes src.Document.Flat.text_offsets;
      "textblob", char_arr_bytes src.Document.Flat.text_blob;
      "meta", meta_payload src;
    ] )

let index_payload ~fingerprint index =
  let w = Codec.writer () in
  Codec.write_string w fingerprint;
  let tokens = Inverted_index.Internal.token_names index in
  Codec.write_varint w (Array.length tokens);
  Array.iter (Codec.write_string w) tokens;
  let packed = Inverted_index.Internal.packed_lists index in
  Codec.write_varint w (Array.length packed);
  Array.iter (Packed_postings.encode w) packed;
  let pairs = Inverted_index.Internal.tag_token_pairs index in
  Codec.write_varint w (Array.length pairs);
  Array.iter
    (fun (a, b) ->
      Codec.write_varint w a;
      Codec.write_varint w b)
    pairs;
  Codec.contents w

(* empty outside live stores; a live generation's number and member table *)
let members_payload = function
  | None -> ""
  | Some g ->
    let w = Codec.writer () in
    Codec.write_varint w g.number;
    Codec.write_varint w (List.length g.members);
    List.iter
      (fun (name, root) ->
        Codec.write_string w name;
        Codec.write_varint w root)
      g.members;
    Codec.contents w

(* The header page: fixed fields, the section table, then a digest of
   everything before it; the rest of the page is zeros. *)
let header_bytes (h : header) =
  let w = Codec.writer () in
  Codec.write_string w magic;
  Codec.write_varint w version;
  Codec.write_fixed64 w endian_probe;
  Codec.write_varint w Sys.int_size;
  Codec.write_varint w h.node_count;
  Codec.write_varint w h.element_count;
  Codec.write_string w h.fingerprint;
  Codec.write_varint w (List.length h.sections);
  List.iter
    (fun s ->
      Codec.write_string w s.name;
      Codec.write_varint w s.offset;
      Codec.write_varint w s.length;
      Codec.write_string w s.md5)
    h.sections;
  Codec.write_string w (hex_md5 (Codec.contents w));
  let raw = Codec.contents w in
  if String.length raw > page then
    raise (Codec.Corrupt (Printf.sprintf "snapshot header overflows its page (%d bytes)"
                            (String.length raw)));
  raw ^ String.make (page - String.length raw) '\000'

(* lay out: header page, then each section padded to a page boundary *)
let assemble ~node_count ~element_count ~fingerprint bodies =
  let off = ref page in
  let sections =
    List.map
      (fun (name, body) ->
        let s = { name; offset = !off; length = String.length body; md5 = hex_md5 body } in
        off := align (!off + String.length body);
        s)
      bodies
  in
  let buf = Buffer.create !off in
  Buffer.add_string buf (header_bytes { node_count; element_count; fingerprint; sections });
  List.iter2
    (fun s (_, body) ->
      assert (Buffer.length buf = s.offset);
      Buffer.add_string buf body;
      let padded = align (s.offset + s.length) in
      Buffer.add_string buf (String.make (padded - s.offset - s.length) '\000'))
    sections bodies;
  Buffer.contents buf

let encode ?generation doc index =
  let src, arena = arena_bodies doc in
  let fingerprint = fingerprint_of_digests (List.map (fun (_, b) -> hex_md5 b) arena) in
  assemble
    ~node_count:(Bigarray.Array1.dim src.Document.Flat.tag)
    ~element_count:src.Document.Flat.element_count ~fingerprint
    (arena
    @ [ "index", index_payload ~fingerprint index; "members", members_payload generation ])

let save ?generation path doc index =
  Faults.hit "snapshot.write";
  Durable.replace_atomic
    ~before_rename:(fun () -> Faults.hit "snapshot.rename")
    ~path (encode ?generation doc index);
  Registry.incr packs_total

(* ------------------------------------------------------------------ *)
(* Decoding *)

let all_zero s ~from = String.for_all (fun c -> c = '\000') (String.sub s from (String.length s - from))

let parse_header ~path raw =
  let r = Codec.reader raw in
  let m = Codec.read_string r in
  if m <> magic then
    raise (Codec.Corrupt (Printf.sprintf "%s: bad snapshot magic %S" path m));
  let v = Codec.read_varint r in
  if v <> version then
    raise
      (Codec.Corrupt
         (Printf.sprintf
            "%s: unsupported snapshot version %d (want %d); rebuild it from its XML" path v
            version));
  let probe = Codec.read_fixed64 r in
  if probe <> endian_probe then
    raise (Codec.Corrupt (Printf.sprintf "%s: endianness mismatch (written on a foreign-endian machine)" path));
  let ws = Codec.read_varint r in
  if ws <> Sys.int_size then
    raise (Codec.Corrupt (Printf.sprintf "%s: word size mismatch (file %d bits, host %d)" path ws Sys.int_size));
  let node_count = Codec.read_varint r in
  let element_count = Codec.read_varint r in
  let fingerprint = Codec.read_string r in
  let n = Codec.read_count r in
  let sections =
    List.init n (fun _ ->
        let name = Codec.read_string r in
        let offset = Codec.read_varint r in
        let length = Codec.read_varint r in
        let md5 = Codec.read_string r in
        { name; offset; length; md5 })
  in
  let body_end = Codec.pos r in
  let recorded = Codec.read_string r in
  if recorded <> hex_md5 (String.sub raw 0 body_end) || not (all_zero raw ~from:(Codec.pos r))
  then raise (Codec.Corrupt (Printf.sprintf "%s: header checksum mismatch (damaged)" path));
  let found = List.map (fun s -> s.name) sections in
  if found <> section_names then
    raise (Codec.Corrupt (Printf.sprintf "%s: unexpected section table [%s]" path
                            (String.concat "; " found)));
  { node_count; element_count; fingerprint; sections }

let section h name =
  (* [parse_header] guaranteed presence *)
  List.find (fun s -> s.name = name) h.sections

let read_at ic ~offset ~length =
  seek_in ic offset;
  really_input_string ic length

(* a section's bytes, checked against the digest recorded at pack time *)
let read_checked ~path ic s =
  let body = read_at ic ~offset:s.offset ~length:s.length in
  if hex_md5 body <> s.md5 then
    raise (Codec.Corrupt (Printf.sprintf "%s: section %S checksum mismatch (damaged)" path s.name));
  body

let read_header ~path ic =
  let file_len = in_channel_length ic in
  if file_len = 0 then
    raise
      (Codec.Truncated
         (Printf.sprintf "%s: empty file (expected a snapshot with magic %S)" path magic));
  if file_len < page then
    raise (Codec.Truncated (Printf.sprintf "%s: %d bytes is too short for a snapshot header page" path file_len));
  let h = parse_header ~path (read_at ic ~offset:0 ~length:page) in
  List.iter
    (fun s ->
      if s.offset > file_len || s.length > file_len - s.offset then
        raise
          (Codec.Truncated
             (Printf.sprintf "%s: section %S ends at %d but the file has %d bytes" path
                s.name (s.offset + s.length) file_len)))
    h.sections;
  h, file_len

(* The full check: every section against its digest, and every padding
   byte between and after them zero, so a flipped byte anywhere in the
   file is caught. *)
let check_every_byte ~path ic h file_len =
  let rec go expected = function
    | [] ->
      if file_len <> expected then
        raise (Codec.Corrupt (Printf.sprintf "%s: %d bytes, layout ends at %d" path file_len expected))
    | s :: rest ->
      if s.offset <> expected then
        raise (Codec.Corrupt (Printf.sprintf "%s: section %S misplaced" path s.name));
      ignore (read_checked ~path ic s);
      let stop = align (s.offset + s.length) in
      let pad = read_at ic ~offset:(s.offset + s.length) ~length:(min file_len stop - s.offset - s.length) in
      if not (all_zero pad ~from:0) then
        raise (Codec.Corrupt (Printf.sprintf "%s: padding after section %S damaged" path s.name));
      go stop rest
  in
  go page h.sections

(* mmap rejects zero-length mappings, so an empty section (a document
   with no text at all) gets a fresh empty bigarray instead *)
let map_int fd ~offset ~count : Document.int_arr =
  if count = 0 then Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int offset) Bigarray.int Bigarray.c_layout false
         [| count |])

let map_char fd ~offset ~count : Document.char_arr =
  if count = 0 then Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0
  else
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int offset) Bigarray.char Bigarray.c_layout false
         [| count |])

let decode_meta payload =
  let r = Codec.reader payload in
  let dtd_source =
    match Codec.read_varint r with
    | 0 -> None
    | 1 -> Some (Codec.read_string r)
    | n -> raise (Codec.Corrupt (Printf.sprintf "snapshot meta: bad dtd flag %d" n))
  in
  let ntags = Codec.read_count r in
  let tag_names = Array.init ntags (fun _ -> Codec.read_string r) in
  if not (Codec.at_end r) then raise (Codec.Corrupt "snapshot meta: trailing bytes");
  dtd_source, tag_names

let decode_index ~doc ~fingerprint payload =
  let r = Codec.reader payload in
  let stored = Codec.read_string r in
  if stored <> fingerprint then
    raise
      (Codec.Corrupt
         (Printf.sprintf "snapshot index/arena fingerprint mismatch (index %s, arena %s)"
            stored fingerprint));
  let ntokens = Codec.read_count r in
  let tokens = Array.init ntokens (fun _ -> Codec.read_string r) in
  let nlists = Codec.read_count r in
  if nlists <> ntokens then raise (Codec.Corrupt "snapshot index: token/list count mismatch");
  let packed = Array.init nlists (fun _ -> Packed_postings.decode r) in
  let npairs = Codec.read_count r in
  let tag_tokens =
    Array.init npairs (fun _ ->
        let a = Codec.read_varint r in
        let b = Codec.read_varint r in
        a, b)
  in
  if not (Codec.at_end r) then raise (Codec.Corrupt "snapshot index: trailing bytes");
  Inverted_index.Internal.of_packed ~doc ~tokens ~packed ~tag_tokens

let decode_members ~node_count payload =
  if payload = "" then None
  else begin
    let r = Codec.reader payload in
    let number = Codec.read_varint r in
    let rec loop k prev acc =
      if k = 0 then List.rev acc
      else begin
        let name = Codec.read_string r in
        let root = Codec.read_varint r in
        if root <= prev || root >= node_count then
          raise (Codec.Corrupt (Printf.sprintf "snapshot members: root %d out of order" root));
        loop (k - 1) root ((name, root) :: acc)
      end
    in
    let members = loop (Codec.read_count r) 0 [] in
    if not (Codec.at_end r) then raise (Codec.Corrupt "snapshot members: trailing bytes");
    Some { number; members }
  end

let open_image ~check_all path =
  if Faults.should_fail "snapshot.map" then
    raise (Codec.Corrupt (Printf.sprintf "injected fault: snapshot.map (%s)" path));
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let h, file_len = read_header ~path ic in
      if check_all then check_every_byte ~path ic h file_len;
      let n = h.node_count in
      let sec = section h in
      let expect name want =
        let s = sec name in
        if s.length <> want then
          raise
            (Codec.Corrupt
               (Printf.sprintf "%s: section %S has %d bytes, expected %d" path name s.length
                  want));
        s
      in
      let tag_s = expect "tag" (n * 8)
      and parent_s = expect "parent" (n * 8)
      and depth_s = expect "depth" (n * 8)
      and size_s = expect "size" (n * 8)
      and kinds_s = expect "kinds" n
      and textoff_s = expect "textoff" ((n + 1) * 8) in
      let textblob_s = sec "textblob" in
      (* the bulk is mapped, not read: cold-start cost is the page table,
         not the corpus; the small sections decoded into the heap are
         checked against their digests first *)
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      let doc =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let tag = map_int fd ~offset:tag_s.offset ~count:n in
            let parent = map_int fd ~offset:parent_s.offset ~count:n in
            let depth = map_int fd ~offset:depth_s.offset ~count:n in
            let size = map_int fd ~offset:size_s.offset ~count:n in
            let text_offsets = map_int fd ~offset:textoff_s.offset ~count:(n + 1) in
            let text_blob = map_char fd ~offset:textblob_s.offset ~count:textblob_s.length in
            let kinds = Bytes.of_string (read_checked ~path ic kinds_s) in
            let dtd_source, tag_names = decode_meta (read_checked ~path ic (sec "meta")) in
            match
              Document.Flat.of_source
                {
                  Document.Flat.dtd_source;
                  tag_names;
                  element_count = h.element_count;
                  kinds;
                  tag;
                  parent;
                  depth;
                  size;
                  text_offsets;
                  text_blob;
                }
            with
            | doc -> doc
            | exception Invalid_argument msg -> raise (Codec.Corrupt (path ^ ": " ^ msg))
            | exception Extract_xml.Error.Parse_error (pos, msg) ->
              raise
                (Codec.Corrupt
                   (Printf.sprintf "%s: stored DTD: %s" path (Extract_xml.Error.to_string pos msg))))
      in
      let index =
        decode_index ~doc ~fingerprint:h.fingerprint (read_checked ~path ic (sec "index"))
      in
      let generation = decode_members ~node_count:n (read_checked ~path ic (sec "members")) in
      Registry.incr maps_total;
      let mapped = (((4 * n) + (n + 1)) * 8) + textblob_s.length in
      Registry.set mapped_bytes_gauge
        (float_of_int (Atomic.fetch_and_add mapped_bytes mapped + mapped));
      h, doc, index, generation)

let load path =
  let _, doc, index, _ = open_image ~check_all:false path in
  doc, index

let load_checked path =
  let _, doc, index, generation = open_image ~check_all:true path in
  doc, index, generation

(* An image of any release opens with a Codec-string magic beginning
   "XTR"; everything else is taken for XML. Images of older formats are
   then rejected by [load] (magic or version), and callers that hold the
   XML rebuild from it. *)
let is_image path =
  let head =
    In_channel.with_open_bin path (fun ic ->
        really_input_string ic (min 16 (in_channel_length ic)))
  in
  match Codec.read_string (Codec.reader head) with
  | m -> String.starts_with ~prefix:"XTR" m
  | exception (Codec.Corrupt _ | Codec.Truncated _) -> false

(* ------------------------------------------------------------------ *)
(* Deep verification, for [extract check]: load never checksums the
   mapped bulk (that would re-read the corpus and defeat the O(1)
   cold-start), so those sections' digests are only spent here. *)

type stats = {
  v_node_count : int;
  v_element_count : int;
  v_fingerprint : string;
  v_sections : (string * int) list; (* name, exact bytes *)
  v_file_bytes : int;
}

let fingerprint doc =
  let _, arena = arena_bodies doc in
  fingerprint_of_digests (List.map (fun (_, b) -> hex_md5 b) arena)

let verify path =
  let h, doc, index, _ = open_image ~check_all:true path in
  (* pairing rule: the header fingerprint must be the fingerprint of the
     arena the sections actually materialize *)
  let actual = fingerprint doc in
  if actual <> h.fingerprint then
    raise
      (Codec.Corrupt
         (Printf.sprintf "%s: header fingerprint %s but the arena materializes as %s" path
            h.fingerprint actual));
  ignore (Inverted_index.postings_size index);
  {
    v_node_count = h.node_count;
    v_element_count = h.element_count;
    v_fingerprint = h.fingerprint;
    v_sections = List.map (fun s -> s.name, s.length) h.sections;
    (* the full check proved the file ends where the last section does *)
    v_file_bytes = List.fold_left (fun _ s -> align (s.offset + s.length)) page h.sections;
  }

module Internal = struct
  let reseal image f =
    let h = parse_header ~path:"image" (String.sub image 0 page) in
    assemble ~node_count:h.node_count ~element_count:h.element_count
      ~fingerprint:h.fingerprint
      (List.map (fun s -> s.name, f s.name (String.sub image s.offset s.length)) h.sections)
end
