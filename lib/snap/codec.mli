(** Binary reader/writer primitives for the snapshot format.

    Integers are zigzag-encoded into 8 little-endian bytes (OCaml ints are
    63-bit, all simulator values fit in 62), strings and lists are
    length-prefixed, options and booleans are single tag bytes. The format
    favors dead-simple decoding over compactness — sparse frame skipping
    (see {!Snapshot}) is where the real size win lives. *)

exception Corrupt of string
(** Raised by every read on truncated or malformed input, including a list
    or array length larger than the bytes left could hold (checked before
    anything is allocated). *)

val corrupt : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Corrupt} with a formatted message. *)

module W : sig
  type t

  val create : ?size:int -> unit -> t
  (** A writer whose buffer starts at [size] bytes (default 64 KiB) and
      grows as needed. *)

  val u8 : t -> int -> unit
  val int : t -> int -> unit
  val bool : t -> bool -> unit
  val str : t -> string -> unit
  val opt : (t -> 'a -> unit) -> t -> 'a option -> unit
  val list : (t -> 'a -> unit) -> t -> 'a list -> unit
  val int_array : t -> int array -> unit
  val raw : t -> string -> unit
  (** Append bytes verbatim, no length prefix (magic headers). *)

  val contents : t -> string
end

module R : sig
  type t

  val of_string : string -> t
  val u8 : t -> int
  val int : t -> int
  val bool : t -> bool
  val str : t -> string
  val opt : (t -> 'a) -> t -> 'a option
  val list : (t -> 'a) -> t -> 'a list
  val int_array : t -> int array
  val at_end : t -> bool
  val expect : t -> string -> unit
  (** Consume exactly these raw bytes or raise {!Corrupt}. *)
end
