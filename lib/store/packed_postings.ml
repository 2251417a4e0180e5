(* Block-compressed posting lists. A posting list is a strictly
   ascending array of node ids; packed form keeps it as delta+varint
   blocks of [Codec.block_size] entries plus a skip table of per-block
   first values, so point and range queries decode at most one block
   instead of the whole list. *)

type t = {
  count : int;
  skips : int array;   (* skips.(b) = first value of block b *)
  offsets : int array; (* offsets.(b) = byte offset of block b in data;
                          length nblocks + 1, last = String.length data *)
  data : string;       (* concatenated delta+varint blocks *)
}

let block = Codec.block_size

let length t = t.count

let nblocks t = Array.length t.skips

let byte_size t =
  (* the resident footprint: compressed bytes plus the two side tables
     (one word per block each) and the record itself *)
  String.length t.data + (8 * (Array.length t.skips + Array.length t.offsets)) + 32

(* read-only — the shared empty posting list; never mutated after creation *)
let empty = { count = 0; skips = [||]; offsets = [| 0 |]; data = "" }

let of_array arr =
  let n = Array.length arr in
  if n = 0 then empty
  else begin
    let nb = (n + block - 1) / block in
    let skips = Array.make nb 0 in
    let offsets = Array.make (nb + 1) 0 in
    let buf = Buffer.create (n * 2) in
    let add_varint v =
      if v < 0 then invalid_arg "Packed_postings.of_array: negative id";
      let rec loop v =
        if v < 0x80 then Buffer.add_char buf (Char.chr v)
        else begin
          Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
          loop (v lsr 7)
        end
      in
      loop v
    in
    for b = 0 to nb - 1 do
      let lo = b * block in
      let hi = min n (lo + block) in
      skips.(b) <- arr.(lo);
      offsets.(b) <- Buffer.length buf;
      add_varint arr.(lo);
      for i = lo + 1 to hi - 1 do
        if arr.(i) <= arr.(i - 1) then
          invalid_arg "Packed_postings.of_array: not strictly ascending";
        add_varint (arr.(i) - arr.(i - 1))
      done
    done;
    let data = Buffer.contents buf in
    offsets.(nb) <- String.length data;
    { count = n; skips; offsets; data }
  end

(* Decode block [b]: a fresh array of its (<= block) entries. Callers on
   the query path decode once per query via Eval_ctx, so the allocation
   is cold; the point/range helpers below touch one block per probe. *)
let decoded_block t b =
  let lo = b * block in
  let len = min t.count (lo + block) - lo in
  let out = Array.make len 0 in
  let r = Codec.reader t.data in
  Codec.seek r t.offsets.(b);
  let prev = ref 0 in
  for i = 0 to len - 1 do
    let v = Codec.read_varint r in
    let node = if i = 0 then v else !prev + v in
    out.(i) <- node;
    prev := node
  done;
  out

let to_array t =
  let out = Array.make t.count 0 in
  for b = 0 to nblocks t - 1 do
    let entries = decoded_block t b in
    Array.blit entries 0 out (b * block) (Array.length entries)
  done;
  out

let get t i =
  if i < 0 || i >= t.count then
    invalid_arg (Printf.sprintf "Packed_postings.get: index %d out of [0,%d)" i t.count);
  (decoded_block t (i / block)).(i mod block)

(* Smallest index i with value >= x, or count: binary-search the skip
   table for the candidate block, then scan its <= block_size decoded
   entries. The compressed counterpart of Postings.lower_bound. *)
let lower_bound t x =
  if t.count = 0 then 0
  else if x <= t.skips.(0) then 0
  else begin
    (* greatest block b with skips.(b) < x; x > skips.(0) here *)
    let lo = ref 0 and hi = ref (nblocks t - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.skips.(mid) < x then lo := mid else hi := mid - 1
    done;
    let b = !lo in
    let entries = decoded_block t b in
    let n = Array.length entries in
    let i = ref 0 in
    while !i < n && entries.(!i) < x do
      incr i
    done;
    (b * block) + !i (* n = first index of the next block, or count *)
  end

let mem t x =
  let i = lower_bound t x in
  i < t.count && get t i = x

(* ------------------------------------------------------------------ *)
(* Codec embedding, for Snapshot's index section. *)

let encode w t =
  Codec.write_varint w t.count;
  Codec.write_varint w (Array.length t.skips);
  let prev = ref 0 in
  Array.iter
    (fun s ->
      Codec.write_varint w (s - !prev);
      prev := s)
    t.skips;
  let prev = ref 0 in
  Array.iter
    (fun o ->
      Codec.write_varint w (o - !prev);
      prev := o)
    t.offsets;
  Codec.write_string w t.data

let decode r =
  let count = Codec.read_varint r in
  let nb = Codec.read_count r in
  if nb <> (count + block - 1) / block then
    raise (Codec.Corrupt (Printf.sprintf "packed postings: %d blocks for %d entries" nb count));
  let prev = ref 0 in
  let skips =
    Array.init nb (fun _ ->
        let s = !prev + Codec.read_varint r in
        prev := s;
        s)
  in
  let prev = ref 0 in
  let offsets =
    Array.init (max 1 (nb + 1)) (fun _ ->
        let o = !prev + Codec.read_varint r in
        prev := o;
        o)
  in
  let data = Codec.read_string r in
  if offsets.(Array.length offsets - 1) <> String.length data then
    raise (Codec.Corrupt "packed postings: offset table disagrees with data length");
  { count; skips; offsets; data }
