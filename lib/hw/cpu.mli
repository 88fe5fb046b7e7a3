(** User-mode CPU interpreter.

    The kernel is not guest code: it runs as host (OCaml) functions invoked
    when [run_block] or [step] reports a fault or a syscall, mirroring the paper's setup
    where the protection mechanism lives entirely in the OS's page-fault and
    debug-interrupt handlers. *)

type regs = {
  gpr : int array;  (** eight GPRs, indexed per {!Isa.Reg.to_int} *)
  mutable eip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable tf : bool;  (** trap flag: single-step mode (EFLAGS.TF) *)
}

val create_regs : unit -> regs
val copy_regs : regs -> regs
val get : regs -> Isa.Reg.t -> int
val set : regs -> Isa.Reg.t -> int -> unit

type ctrl_kind = Exec_env.ctrl_kind =
  | Call_direct  (** [call rel] *)
  | Call_indirect  (** [call reg] *)
  | Return  (** [ret] *)
  | Jump_indirect  (** [jmp reg] *)

val ctrl_kind_name : ctrl_kind -> string

(** {2 Exit registers}

    {!run_block} and {!step} report how they ended through one mutable
    record per machine ({!Exec_env.t.exit}), rewritten in place on every
    call and returned by it — crossing into the kernel allocates nothing.
    Page-fault details live in the MMU's pending-fault registers
    ({!Mmu.pending_fault}). *)

type exit_code = Exec_env.exit_code =
  | No_trap
      (** nothing to deliver: the attempt budget or the tick limit ended
          the run — for a single step, the instruction retired *)
  | Syscall  (** [int 0x80] retired; the number is in [syscall] *)
  | Page_fault  (** details in the MMU's pending-fault registers *)
  | Invalid_opcode  (** #UD at [ud_eip], opcode [ud_opcode] *)
  | General_protection  (** #GP, reason in [gp_reason] *)

type exit = Exec_env.exit = {
  mutable attempts : int;
      (** instructions attempted (retired plus the trapping one, if any) —
          the scheduler's quantum/fuel currency *)
  mutable retired : int;
      (** plainly retired instructions: their cycles are already charged,
          but the caller must add [retired] to [Cost.insns] and to the
          retire-rate metric *)
  mutable code : exit_code;
  mutable syscall : int;
  mutable ud_eip : int;
  mutable ud_opcode : int;
  mutable gp_reason : string;
  mutable debug : bool;
      (** a debug interrupt (#DB) is due: the trap flag was set when the
          last instruction started and it retired or made a syscall — the
          hook Algorithm 2 uses to re-restrict the PTE after an ITLB load.
          A faulting instruction raises no debug trap. *)
}

val exit_code_name : exit_code -> string

val pp_exit : Mmu.t -> Format.formatter -> exit -> unit
(** Print an exit; a page fault prints through {!Mmu.pp_fault} from the
    pending-fault registers of the given MMU. *)

val step : Mmu.t -> regs -> exit
(** Execute one instruction at [regs.eip], decoding it byte-at-a-time
    through the ITLB, and return the machine's exit registers
    ([(Mmu.env mmu).exit]). Register state is committed only if every
    memory access succeeds, so faulting instructions can be restarted.

    Exactly a one-instruction {!run_block}: a retired instruction charges
    its cycles, the retire hook sees every instruction that retired or
    made a syscall, and the exit registers end the same. The control
    transfer monitor is [(Mmu.env mmu).ctrl]: consulted on every
    [call]/[call reg]/[ret]/[jmp reg] after the instruction's memory
    accesses and before the new eip commits; [false] turns the transfer
    into a #GP. *)

val run_block : Exec_env.t -> Mmu.t -> regs -> max_insns:int -> tick_limit:int -> exit
(** Dispatch decoded basic blocks from [env]'s {!Bbcache} (which must be
    installed) until an instruction traps, [max_insns] instructions have
    been attempted, or [Cost.cycles] reaches [tick_limit] — the check sits
    before every instruction, exactly where the per-instruction loop calls
    its timer — and return [env.exit]. With the trap flag set the budget
    is one instruction and [debug] reports the #DB, as {!step} does.
    Bit-identical to iterated {!step}: byte 0 of every instruction goes
    through a real translation (which also revalidates the mapping),
    remaining bytes replay their TLB/icache/sampling effects, and retired
    instructions charge their cycles inline. The caller must not use this
    while a TLB integrity guard is installed or while ECC scrubbing is
    enabled — those need the per-instruction path. A call that neither
    builds a block nor meets a negative block allocates nothing. *)

val mask32 : int -> int
val sign32 : int -> int
