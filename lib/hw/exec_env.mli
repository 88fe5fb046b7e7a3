(** The execution environment: the one hooks record the CPU dispatch loop
    consults, plus the exit registers it reports through. Built once per
    machine (by {!Mmu.create}, reachable via {!Mmu.env}) and mutated in
    place by its owners — the scheduler arms {!t.ctrl}/{!t.retire} per
    quantum, the profiler installs {!t.sample} on attach/detach, the
    machine installs {!t.cache} at creation, and {!Cpu.run_block} and
    {!Cpu.step} rewrite {!t.exit} on every call. *)

type access = Fetch | Read | Write
(** Re-exported as {!Mmu.access}; lives here so the sampling hook type can
    be stated below the MMU in the module graph. *)

type ctrl_kind = Call_direct | Call_indirect | Return | Jump_indirect
(** Re-exported as {!Cpu.ctrl_kind}. *)

type ctrl = kind:ctrl_kind -> site:int -> target:int -> ret:int -> bool

(** How a dispatch call ended. Re-exported as {!Cpu.exit_code}. *)
type exit_code =
  | No_trap
      (** nothing to deliver: the attempt budget or the tick limit ended
          the run — for a single step, the instruction retired *)
  | Syscall  (** [int 0x80] retired; the number is in [syscall] *)
  | Page_fault  (** details in the MMU's pending-fault registers *)
  | Invalid_opcode  (** #UD at [ud_eip], opcode [ud_opcode] *)
  | General_protection  (** #GP, reason in [gp_reason] *)

(** The exit registers, re-exported as {!Cpu.exit}: one record per
    machine, rewritten in place by every {!Cpu.run_block} and
    {!Cpu.step}. *)
type exit = {
  mutable attempts : int;
      (** instructions attempted (retired plus the trapping one, if any) *)
  mutable retired : int;
      (** plainly retired instructions: their cycles are charged, the
          caller adds them to [Cost.insns] *)
  mutable code : exit_code;
  mutable syscall : int;  (** EAX at [int 0x80] ([code = Syscall]) *)
  mutable ud_eip : int;  (** [code = Invalid_opcode] *)
  mutable ud_opcode : int;  (** [code = Invalid_opcode]; [-1] = truncated *)
  mutable gp_reason : string;
      (** [code = General_protection]; written only on that path *)
  mutable debug : bool;
      (** debug trap (#DB) pending: the trap flag was set when the last
          instruction started, and it retired or made a syscall *)
}

type t = {
  mutable ctrl : ctrl option;
      (** control-transfer monitor (a CFI defense): consulted on every
          [call]/[call reg]/[ret]/[jmp reg] after the instruction's memory
          accesses and before the new eip commits; [false] denies the
          transfer (#GP). Armed per quantum. *)
  mutable sample : (access -> int -> bool -> unit) option;
      (** address-sampling hook (lib/prof): [h access vpn tlb_hit] on
          every {e successful} translation, after permission checks. All
          arguments unboxed; [None] costs one branch. When installed, the
          block dispatcher replays fetches byte-at-a-time so decimation
          order is preserved exactly. *)
  mutable retire : int -> unit;
      (** fired with the instruction's eip for every instruction that
          retires or makes a syscall, under either dispatch; the kernel points it at the
          process's forensic trace ring each quantum. [ignore] = off. *)
  mutable cache : Bbcache.t option;
      (** decoded basic-block cache; [None] disables block dispatch. *)
  exit : exit;  (** the CPU's exit registers *)
}

val create : unit -> t
(** All hooks off: [ctrl = None], [sample = None], [retire = ignore],
    [cache = None]; fresh exit registers. *)
