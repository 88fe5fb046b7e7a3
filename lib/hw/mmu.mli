(** Memory-management unit: virtual-address translation through the split
    instruction/data TLBs, with a hardware pagetable walk on miss.

    Permission checks are performed against the {e cached} TLB entry on a
    hit and against the PTE on a miss, exactly as on x86. A permission
    violation on a miss does not fill the TLB. This is the property the
    split-memory technique exploits: a PTE can be restricted (supervisor)
    while a previously loaded user-accessible TLB entry keeps servicing
    accesses of one kind, routing fetches and data accesses to different
    physical frames. *)

type access = Exec_env.access = Fetch | Read | Write

val pp_access : Format.formatter -> access -> unit

type hw_pte = {
  frame : int;
  present : bool;
  writable : bool;
  user : bool;  (** accessible from user mode; false = supervisor-only *)
  nx : bool;  (** execute-disable (only enforced when NX is enabled) *)
}
(** The hardware's view of a pagetable entry, as a value. A page walk
    returns it packed: see {!pack_pte}. *)

val no_pte : int
(** What a walk returns for an unmapped vpn ([-1]). *)

val pack_pte : hw_pte -> int
(** The packed form a walk returns: {!Tlb.pack} of the entry plus
    {!Tlb.present_bit} when [present]. A walk is an [int -> int] function
    so that walking allocates nothing. *)

type fill_mode =
  | Hardware_walk  (** x86: misses are resolved by the hardware page walker *)
  | Software_fill
      (** SPARC-style: misses trap to the OS, which loads the TLB directly
          (paper §4.7) *)

type fault_kind =
  | Not_present
  | Protection
  | Tlb_miss  (** software-fill mode only: the OS must load the TLB *)

type fault = { addr : int; access : access; kind : fault_kind; from_user : bool }

exception Page_fault of fault

val fault_kind_name : fault_kind -> string

val pp_fault : Format.formatter -> fault -> unit
(** The canonical fault formatter ([#PF addr=... access=... kind=...
    mode=...]). {!Cpu.pp_exit} routes its page-fault arm through this, so
    every layer prints faults the same way. *)

type t

val create :
  ?itlb_capacity:int ->
  ?dtlb_capacity:int ->
  ?tlb_policy:Tlb.policy ->
  phys:Phys.t ->
  cost:Cost.t ->
  unit ->
  t
(** [tlb_policy] (default {!Tlb.Fifo}) selects the replacement policy for
    both TLBs — the profiler's eviction-policy experiments sweep it. *)

val phys : t -> Phys.t
val itlb : t -> Tlb.t
val dtlb : t -> Tlb.t
val cost : t -> Cost.t

val env : t -> Exec_env.t
(** The machine's execution environment — the hooks record shared with the
    CPU dispatch loop, created with the MMU and mutated in place by its
    owners (see {!Exec_env}). The profiler installs its sampling hook as
    [(Mmu.env mmu).Exec_env.sample <- Some h]. *)

val obs : t -> Obs.t
val set_obs : t -> Obs.t -> unit
(** Attach an observability sink (default {!Obs.null}). The MMU emits
    trace events and counters for walks, fills, soft fills, TLB flushes
    and faults when the sink is enabled. *)

val set_nx : t -> bool -> unit
(** Enable/disable execute-disable-bit enforcement (legacy x86 = off). *)

val nx_enabled : t -> bool
val set_fill_mode : t -> fill_mode -> unit
val fill_mode : t -> fill_mode

val load_tlb : t -> access -> Tlb.entry -> unit
(** Software TLB load from the OS miss handler (Software_fill mode): insert
    into the I- or D-TLB according to the faulting access. *)

val enable_caches : ?lines:int -> t -> unit
(** Attach the I/D cache timing model (off by default; used by the
    self-modifying-code coherency ablation). *)

val icache : t -> Cache.t option
val dcache : t -> Cache.t option

val kernel_code_write : t -> frame:int -> off:int -> int -> unit
(** Kernel byte store into a physical frame with coherency effects (icache
    invalidation + pipeline-flush penalty if the line was cached). *)

val reload_cr3 : t -> (int -> int) -> unit
(** Load a new pagetable (the walk function: vpn to packed PTE, see
    {!pack_pte}) and flush both TLBs — what a context switch does. Clears
    any dual-pagetable configuration. *)

val reload_cr3_dual : t -> code:(int -> int) -> data:(int -> int) -> unit
(** The §3.3.1 hardware modification: two pagetable registers, CR3-C
    walked on instruction fetches and CR3-D on data accesses. *)

val flush_tlbs : t -> unit
val invlpg : t -> int -> unit
(** Invalidate one vpn in both TLBs (unless an installed {!set_invlpg_hook}
    swallows it). [flush_tlbs] is never suppressed. *)

val set_tlb_guard : t -> (access -> Tlb.entry -> bool) option -> unit
(** Install a TLB integrity guard (fault injection's detection hook): the
    guard sees every TLB {e hit} before permission checks and returns
    [false] to reject the cached entry as corrupted. A rejected entry is
    invalidated and the access retranslated, so the retry misses and
    refills (or faults) from the live pagetable — the resync path. The
    guard must not touch this MMU's TLBs itself. With no guard installed
    the hit path is unchanged and allocation-free. *)

val set_invlpg_hook : t -> (int -> bool) option -> unit
(** Install the missed-[invlpg] fault hook: called with the vpn of every
    {!invlpg}; returning [true] swallows the invalidation, leaving any
    cached entries stale. *)

val has_tlb_guard : t -> bool
(** A TLB integrity guard is currently installed. The scheduler consults
    this to force per-instruction dispatch: the guard must see every TLB
    hit individually, which the block dispatcher's batched fetch accounting
    would elide. *)

val translate : t -> from_user:bool -> access -> int -> int * int
(** [translate t ~from_user access vaddr] returns [(frame, offset)].
    @raise Page_fault on a missing or protection-violating translation. *)

val translate_result : t -> from_user:bool -> access -> int -> int
(** The non-raising, non-allocating fast path. The result is an unboxed
    variant packed into an [int]: a physical address is always [>= 0], so
    a non-negative result is the packed paddr ([frame * page_size + off],
    decodable with {!Phys.frame_of_addr}/{!Phys.off_of_addr}) and a
    negative result is a fault code whose kind {!fault_code_kind} recovers.
    On a fault the details are latched into pending-fault registers (the
    CR2 analogue) readable via {!pending_fault} — no [fault] record or
    exception is allocated. *)

val fault_code_kind : int -> fault_kind
(** Decode a negative {!translate_result} code. Raises [Invalid_argument]
    on anything that is not a fault code. *)

val pending_fault : t -> fault
(** Materialize the most recent fault from the pending registers. Only
    meaningful immediately after a negative {!translate_result} or a
    {!Pending_fault} raise; a later fault overwrites the registers. *)

exception Pending_fault
(** Constant (payload-free) exception raised by the {!Fast} accessors so a
    faulting access unwinds without allocating. Catch it and call
    {!pending_fault} at the trap boundary. *)

val fetch8 : t -> from_user:bool -> int -> int
(** Instruction-side byte read (goes through the ITLB). *)

val read8 : t -> from_user:bool -> int -> int
val write8 : t -> from_user:bool -> int -> int -> unit
val read32 : t -> from_user:bool -> int -> int
val write32 : t -> from_user:bool -> int -> int -> unit

(** The fast-path access module: the CPU dispatch loop's accessors. One
    shared translation core holds the fault plumbing (a faulting access
    raises the constant {!Pending_fault} instead of allocating a
    [Page_fault] record); each accessor layers exactly its cache traffic
    over the physical access. 32-bit accesses that straddle a page
    boundary decay into four byte accesses, each with its own translation
    and fault point. *)
module Fast : sig
  val fetch8 : t -> from_user:bool -> int -> int
  (** Instruction-side byte read (ITLB + icache). *)

  val read8 : t -> from_user:bool -> int -> int
  val write8 : t -> from_user:bool -> int -> int -> unit
  val read32 : t -> from_user:bool -> int -> int
  val write32 : t -> from_user:bool -> int -> int -> unit
end

val touch_icache : t -> int -> unit
(** Charge an icache access for packed paddr [pa] (no-op when the cache
    timing model is off). The block dispatcher replays this per fetched
    byte so cycle counts match the per-instruction interpreter exactly. *)

val touch_read : t -> int -> unit
(** Algorithm 1's DTLB load: user-mode read of one byte so the hardware
    walks the (temporarily unrestricted) PTE into the data-TLB. *)
