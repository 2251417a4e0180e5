(** Binary encoding primitives for {!Snapshot}, {!Journal} and {!Persist.Envelope}.

    A deliberately boring format: unsigned LEB128 varints for integers
    (with a zig-zag variant for possibly-negative values) and
    length-prefixed byte strings. No [Marshal]: files are portable across
    OCaml versions and trivially inspectable. *)

type writer

val writer : unit -> writer

val write_varint : writer -> int -> unit
(** Non-negative integers. @raise Invalid_argument on negatives. *)

val write_int : writer -> int -> unit
(** Any integer (zig-zag encoded). *)

val write_string : writer -> string -> unit

val write_bytes_raw : writer -> bytes -> unit
(** Length-prefixed raw bytes. *)

val write_fixed64 : writer -> int64 -> unit
(** A raw native-endian 64-bit word, no length prefix. Unlike a varint
    this is {e not} endian-agnostic — which is exactly why the
    {!Snapshot} header uses one as an endianness probe. *)

val contents : writer -> string

type reader

val reader : string -> reader
(** Reader positioned at the start of the buffer. *)

val read_varint : reader -> int
(** @raise Corrupt on a value outside [\[0, max_int\]] or an overlong
    encoding. *)

val read_count : reader -> int
(** A varint that counts the entries following it, each at least one
    byte long. @raise Corrupt when it exceeds the bytes left, so a
    damaged count never sizes an allocation. *)

val read_int : reader -> int

val read_string : reader -> string

val read_bytes_raw : reader -> bytes

val read_fixed64 : reader -> int64

val pos : reader -> int
(** Current byte position, for consumers that record offsets. *)

val seek : reader -> int -> unit
(** Jump to an absolute byte position (a previously recorded offset).
    @raise Invalid_argument if the position is outside the buffer. *)

val at_end : reader -> bool

(** {1 Block-compressed sorted arrays}

    Shared delta+varint block primitives for strictly ascending int
    arrays ({!Packed_postings} block payloads): each block opens with its
    absolute first value, then gaps. *)

val block_size : int
(** Entries per compression block (the skip-table granularity). *)

val write_sorted_block : writer -> int array -> lo:int -> hi:int -> unit
(** Encode [arr.(lo) .. arr.(hi-1)] (strictly ascending) as one block. *)

val read_sorted_block : reader -> int array -> lo:int -> hi:int -> unit
(** Decode one block into [out.(lo) .. out.(hi-1)].
    @raise Corrupt on a zero gap (the input was not strictly ascending). *)

exception Corrupt of string
(** Raised on malformed input: bad magic, checksum mismatch, overlong
    varints, inconsistent structure. The data is there but wrong. *)

exception Truncated of string
(** Raised when the input ends before the value being read is complete —
    the signature of an interrupted write rather than bit rot. Recovery
    code ({!Journal}) treats truncation of the {e final} record of a
    journal as benign (a torn tail to discard), while {!Corrupt} mid-file
    is always fatal; whole-file readers ({!Snapshot}, the shard manifest) treat both as a bad
    artifact. *)
