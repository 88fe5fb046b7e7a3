(** Kernel pagetable entries.

    On top of the hardware-visible bits ({!to_hw}), the kernel keeps the
    split-memory bookkeeping the paper adds to Linux PTEs: the "this page is
    split" marker with the two physical frames (code copy / data copy), the
    observe-mode lock, and the COW bit. The [frame] field is what the
    hardware page walk sees — Algorithm 1 works by pointing it at one copy
    or the other while the PTE is temporarily unrestricted. *)

type kind = Code | Rodata | Data | Bss | Heap | Stack | Mixed | Lib | Mmap

val kind_name : kind -> string

type split = {
  code_frame : int;  (** pristine copy, target of instruction fetches *)
  mutable data_frame : int;  (** live copy, target of data accesses *)
  mutable locked_to_data : bool;
      (** observe mode: splitting disabled, data copy is the sole mapping *)
}

type t = {
  vpn : int;
  kind : kind;
  mutable frame : int;  (** the frame the hardware currently sees *)
  mutable present : bool;
  mutable writable : bool;
  mutable user : bool;  (** false = supervisor-restricted (forces TLB-miss faults) *)
  mutable nx : bool;
  mutable cow : bool;
  mutable orig_writable : bool;  (** writability of the region, pre-COW *)
  mutable split : split option;
}

val make : vpn:int -> kind:kind -> frame:int -> writable:bool -> t
val to_hw : t -> Hw.Mmu.hw_pte

val packed : t -> int
(** What the hardware page walk sees, packed ({!Hw.Mmu.pack_pte} of
    {!to_hw}) — allocation-free. *)

val packed_at : t -> frame:int -> user:bool -> int
(** {!packed} with the frame and user bit replaced (the §3.3.1 split
    views). *)

val is_split : t -> bool
val restrict : t -> unit
(** Set supervisor-only — user accesses fault on the next TLB miss. *)

val unrestrict : t -> unit
val data_frame : t -> int
(** The frame data accesses should reach (the split data copy if split). *)

val code_frame : t -> int
(** The frame fetches should reach: the code copy, unless observe mode
    locked the page to its data copy. *)

val pp : Format.formatter -> t -> unit
