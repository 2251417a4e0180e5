module Envelope = struct
  let version = 2

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
      raise
        (Codec.Corrupt (Printf.sprintf "unsupported %s version %d (want %d)" kind v version));
    let sum = Codec.read_string r in
    let payload = Codec.read_string r in
    if not (Codec.at_end r) then
      raise (Codec.Corrupt (Printf.sprintf "trailing bytes after %s" kind));
    if Digest.string payload <> sum then
      raise (Codec.Corrupt (Printf.sprintf "%s checksum mismatch (payload damaged)" kind));
    payload
end
