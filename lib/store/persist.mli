(** Sealed envelopes: magic · format version · MD5(payload) · payload.

    The small {!Codec} artifacts that sit beside {!Snapshot} images — the
    shard manifest of a [pack --shards] directory — carry their payload
    in one envelope, so a damaged or foreign file is rejected up front
    instead of surfacing later as nonsense data. Damage is reported with
    two distinct errors: a file that ends prematurely raises
    {!Codec.Truncated} (the signature of an interrupted write), while
    structural damage — wrong magic, bad version, checksum mismatch,
    trailing bytes — raises {!Codec.Corrupt}. *)

module Envelope : sig
  val seal : magic:string -> string -> string

  val unseal : magic:string -> kind:string -> string -> string
  (** @raise Codec.Corrupt on wrong magic, version, checksum or trailing
      bytes; [Codec.Truncated] when the data ends prematurely. *)
end
