(* Frozen reference: the retired v1 bundle codec (magic XTRBUNDL), kept
   only as E22's cold-start baseline. The library reads and writes
   snapshot images alone; this file keeps the work a v1 bundle load did
   — read the whole file, check three MD5 seals, decode every node and
   text string into the heap, re-derive the arena fingerprint, decode
   every gap-encoded posting list — so the gate's floor compares the
   image against the same baseline it always did. Do not tune it: a
   faster baseline would loosen the gate. *)

module Codec = Extract_store.Codec
module Document = Extract_store.Document
module Inverted_index = Extract_store.Inverted_index

let version = 2

let magic = "XTRARENA"

let index_magic = "XTRINDEX"

let bundle_magic = "XTRBUNDL"

let seal ~magic payload =
  let w = Codec.writer () in
  Codec.write_string w magic;
  Codec.write_varint w version;
  Codec.write_string w (Digest.string payload);
  Codec.write_string w payload;
  Codec.contents w

let unseal ~magic:expected ~kind data =
  let r = Codec.reader data in
  let m = Codec.read_string r in
  if m <> expected then raise (Codec.Corrupt (Printf.sprintf "bad %s magic %S" kind m));
  let v = Codec.read_varint r in
  if v <> version then
    raise (Codec.Corrupt (Printf.sprintf "unsupported %s version %d (want %d)" kind v version));
  let sum = Codec.read_string r in
  let payload = Codec.read_string r in
  if not (Codec.at_end r) then
    raise (Codec.Corrupt (Printf.sprintf "trailing bytes after %s" kind));
  if Digest.string payload <> sum then
    raise (Codec.Corrupt (Printf.sprintf "%s checksum mismatch (payload damaged)" kind));
  payload

let write_int_array w arr =
  Codec.write_varint w (Array.length arr);
  Array.iter (Codec.write_int w) arr

let read_int_array r =
  let n = Codec.read_varint r in
  Array.init n (fun _ -> Codec.read_int r)

let write_string_array w arr =
  Codec.write_varint w (Array.length arr);
  Array.iter (Codec.write_string w) arr

let read_string_array r =
  let n = Codec.read_varint r in
  Array.init n (fun _ -> Codec.read_string r)

let doc_payload doc =
  let repr = Document.Internal.to_repr doc in
  let w = Codec.writer () in
  (match repr.Document.Internal.dtd_source with
  | None -> Codec.write_varint w 0
  | Some s ->
    Codec.write_varint w 1;
    Codec.write_string w s);
  write_string_array w repr.Document.Internal.tag_names;
  Codec.write_bytes_raw w repr.Document.Internal.kinds;
  write_int_array w repr.Document.Internal.tag;
  write_int_array w repr.Document.Internal.parent;
  write_int_array w repr.Document.Internal.depth;
  write_int_array w repr.Document.Internal.size;
  write_string_array w repr.Document.Internal.texts;
  Codec.write_varint w repr.Document.Internal.element_count;
  Codec.contents w

let fingerprint doc = Digest.to_hex (Digest.string (doc_payload doc))

let decode_payload payload =
  let r = Codec.reader payload in
  let dtd_source =
    match Codec.read_varint r with
    | 0 -> None
    | 1 -> Some (Codec.read_string r)
    | n -> raise (Codec.Corrupt (Printf.sprintf "bad dtd flag %d" n))
  in
  let tag_names = read_string_array r in
  let kinds = Codec.read_bytes_raw r in
  let tag = read_int_array r in
  let parent = read_int_array r in
  let depth = read_int_array r in
  let size = read_int_array r in
  let texts = read_string_array r in
  let element_count = Codec.read_varint r in
  let node_count = Array.length tag in
  if Bytes.length kinds <> node_count
     || Array.length parent <> node_count
     || Array.length depth <> node_count
     || Array.length size <> node_count
     || Array.length texts <> node_count
  then raise (Codec.Corrupt "inconsistent array lengths");
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing bytes");
  Document.Internal.of_repr
    {
      Document.Internal.dtd_source;
      tag_names;
      kinds;
      tag;
      parent;
      depth;
      size;
      texts;
      element_count;
    }

let index_payload ~arena_fingerprint index =
  let repr = Inverted_index.Internal.to_repr index in
  let w = Codec.writer () in
  Codec.write_string w arena_fingerprint;
  write_string_array w repr.Inverted_index.Internal.tokens;
  Codec.write_varint w (Array.length repr.Inverted_index.Internal.postings);
  Array.iter
    (fun list ->
      Codec.write_varint w (Array.length list);
      let prev = ref 0 in
      Array.iteri
        (fun i node ->
          if i = 0 then Codec.write_varint w node
          else Codec.write_varint w (node - !prev);
          prev := node)
        list)
    repr.Inverted_index.Internal.postings;
  Codec.write_varint w (Array.length repr.Inverted_index.Internal.tag_tokens);
  Array.iter
    (fun (a, b) ->
      Codec.write_varint w a;
      Codec.write_varint w b)
    repr.Inverted_index.Internal.tag_tokens;
  Codec.contents w

let decode_index_payload ~doc ~arena_fingerprint payload =
  let r = Codec.reader payload in
  let stored_fingerprint = Codec.read_string r in
  if stored_fingerprint <> arena_fingerprint then
    raise
      (Codec.Corrupt
         (Printf.sprintf
            "index/arena fingerprint mismatch (index built from arena %s, loaded against \
             %s)"
            stored_fingerprint arena_fingerprint));
  let tokens = read_string_array r in
  let n_lists = Codec.read_varint r in
  let postings =
    Array.init n_lists (fun _ ->
        let len = Codec.read_varint r in
        let out = Array.make len 0 in
        let prev = ref 0 in
        for i = 0 to len - 1 do
          let v = Codec.read_varint r in
          let node = if i = 0 then v else !prev + v in
          out.(i) <- node;
          prev := node
        done;
        out)
  in
  if Array.length tokens <> n_lists then
    raise (Codec.Corrupt "token/postings arity mismatch");
  let n_pairs = Codec.read_varint r in
  let tag_tokens =
    Array.init n_pairs (fun _ ->
        let a = Codec.read_varint r in
        let b = Codec.read_varint r in
        a, b)
  in
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing bytes after index");
  Inverted_index.Internal.of_repr ~doc { Inverted_index.Internal.tokens; postings; tag_tokens }

let encode doc index =
  let w = Codec.writer () in
  Codec.write_string w (seal ~magic (doc_payload doc));
  Codec.write_string w
    (seal ~magic:index_magic
       (index_payload ~arena_fingerprint:(fingerprint (Inverted_index.document index)) index));
  seal ~magic:bundle_magic (Codec.contents w)

let decode data =
  let payload = unseal ~magic:bundle_magic ~kind:"bundle" data in
  let r = Codec.reader payload in
  let arena_section = Codec.read_string r in
  let index_section = Codec.read_string r in
  if not (Codec.at_end r) then raise (Codec.Corrupt "trailing bytes after bundle");
  let arena_payload = unseal ~magic ~kind:"arena" arena_section in
  let doc = decode_payload arena_payload in
  let index =
    decode_index_payload ~doc
      ~arena_fingerprint:(Digest.to_hex (Digest.string arena_payload))
      (unseal ~magic:index_magic ~kind:"index" index_section)
  in
  doc, index

let save path doc index = Out_channel.with_open_bin path (fun oc -> output_string oc (encode doc index))

let load path =
  let ic = open_in_bin path in
  let data =
    try really_input_string ic (in_channel_length ic)
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  decode data
