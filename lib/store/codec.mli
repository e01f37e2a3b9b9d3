(** Binary (de)serialization helpers for the durable store.

    All integers are little-endian 64-bit; strings are length-prefixed.
    The framing layer ({!Store}) protects every payload with a CRC-32,
    so a [Corrupt] raised here after a successful CRC check indicates a
    format/version bug, not disk damage. *)

val crc32 : ?crc:int32 -> ?off:int -> ?len:int -> string -> int32
(** IEEE 802.3 CRC-32 of a substring (whole string by default),
    slicing-by-8 over native ints.  [crc] continues an earlier result:
    [crc32 ~crc:(crc32 a) b = crc32 (a ^ b)], so a CRC can span
    substrings that are not adjacent.  Raises [Invalid_argument] when
    [off]/[len] do not name a substring of [s]. *)

val crc32_pieces : string list -> int32
(** [crc32_pieces ps = crc32 (String.concat "" ps)], without building
    the concatenation. *)

(** Append-only writer over a [Buffer.t]. *)
module W : sig
  type t = Buffer.t

  val create : unit -> t
  val int : t -> int -> unit
  val bool : t -> bool -> unit
  val float : t -> float -> unit
  val str : t -> string -> unit
  val opt_str : t -> string option -> unit
  val list : t -> ('a -> unit) -> 'a list -> unit
  (** [list w f xs] writes the length then [f] per element; [f] is
      expected to close over [w]. *)
end

(** Sequential reader over an immutable string. *)
module R : sig
  type t

  exception Corrupt of string

  val of_string : string -> t
  val int : t -> int
  val bool : t -> bool
  val float : t -> float
  val str : t -> string
  val opt_str : t -> string option
  val list : t -> (unit -> 'a) -> 'a list
  val at_end : t -> bool
end
