(** The trap layer: the dispatch pipeline routing every class of CPU exit
    through the {!Protection.t} hooks.

    This boundary is where the paper's defense lives: Algorithm 1 runs in
    the page-fault handler, Algorithm 2 in the debug-interrupt handler,
    Algorithm 3 in the invalid-opcode handler (§5). The pipeline owns the
    cost-charging discipline for every class and the per-class
    observability instruments; {!Sched} calls {!deliver} on the exit
    registers whenever a dispatch call ends in a trap or a #DB. *)

val handle_tlb_miss : Machine.t -> Proc.t -> Hw.Mmu.fault -> Pte.t -> unit
(** Software-managed-TLB miss service (paper §4.7): COW and permission
    checks, then the [on_tlb_fill] hook picks the frame to load. *)

val handle_page_fault : Machine.t -> Proc.t -> Hw.Mmu.fault -> unit
(** The page-fault handler: demand paging, COW, the Algorithm 1 hook
    ([on_protection_fault]), or SIGSEGV. *)

val deliver : ?table:Syscalls.table -> Machine.t -> Proc.t -> Hw.Cpu.exit -> unit
(** Deliver what the exit registers hold, dispatching on their code. The
    primary trap first: a syscall (through [table], default
    {!Syscalls.default}), a page fault (its record read once from the
    MMU's pending-fault registers), #UD or #GP — each charged, routed to
    its handler and counted under [traps.by_class] as
    {!Hw.Cpu.exit_code_name}. [No_trap] delivers nothing: retired
    instructions are charged by the CPU and counted by the scheduler.
    Then the piggybacked #DB (class [debug_trap]) — after the primary
    trap, and only if the process is still runnable, mirroring x86
    delivery order. *)
