(** Two-pass assembler: instruction lists with labels to raw machine code.

    Guest programs (victims, benchmark workloads, shellcode) are written as
    {!program} values; [assemble] lays them out from a load [origin],
    resolves label targets into relative displacements and returns the
    encoded bytes plus the label map. *)

type item =
  | I of Insn.t  (** one instruction *)
  | L of string  (** define a label at the current address *)
  | Bytes of string  (** literal bytes (e.g. string constants) *)
  | Word32 of int  (** one little-endian 32-bit word *)
  | Words of int list  (** several 32-bit words *)
  | Space of int  (** [n] zero bytes *)
  | Align of int  (** pad with zeros to the next multiple of [n] *)

type program = item list

exception Duplicate_label of string
exception Undefined_label of string

type assembled = {
  code : string;  (** encoded bytes *)
  labels : (string, int) Hashtbl.t;  (** label -> absolute address *)
  origin : int;  (** load address of the first byte *)
}

val layout : ?origin:int -> program -> (string, int) Hashtbl.t * int
(** The first pass alone: the label map and the size in bytes that
    {!assemble} would produce, without encoding anything.
    @raise Duplicate_label if a label is defined twice. *)

val assemble : ?origin:int -> program -> assembled
(** Assemble a program laid out starting at [origin] (default 0).
    @raise Duplicate_label if a label is defined twice.
    @raise Undefined_label if a jump/call names an unknown label. *)

val label : assembled -> string -> int
(** Absolute address of a label. @raise Undefined_label if missing. *)
