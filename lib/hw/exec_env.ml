(* The execution environment: one mutable record per machine collecting
   every hook the CPU dispatch loop consults and the exit registers it
   reports through, replacing the optional arguments and per-subsystem
   hook fields that used to accrete on [Cpu.step] ([?ctrl]) and [Mmu.t]
   ([sample_hook]). The record is built once (by [Mmu.create]) and mutated
   in place: the scheduler arms [ctrl] and [retire] per quantum, the
   profiler installs [sample] on attach, the machine installs [cache] at
   creation, and every dispatch call rewrites [exit]. Keeping the fields unboxed
   options (and [retire] a plain closure) preserves the allocation-free
   discipline: a machine with nothing installed pays one branch per use. *)

type access = Fetch | Read | Write

type ctrl_kind = Call_direct | Call_indirect | Return | Jump_indirect

type ctrl = kind:ctrl_kind -> site:int -> target:int -> ret:int -> bool

(* The exit registers: how the last [Cpu.run_block] or [Cpu.step] ended.
   One record per machine, rewritten in place by every call, so crossing
   the CPU -> kernel boundary allocates nothing. Page-fault details stay
   in the MMU's pending-fault registers. *)
type exit_code = No_trap | Syscall | Page_fault | Invalid_opcode | General_protection

type exit = {
  mutable attempts : int;
  mutable retired : int;
  mutable code : exit_code;
  mutable syscall : int;
  mutable ud_eip : int;
  mutable ud_opcode : int;
  mutable gp_reason : string;
  mutable debug : bool;
}

type t = {
  mutable ctrl : ctrl option;
      (* control-transfer monitor (CFI); consulted before a transfer's new
         eip commits, armed per quantum by the scheduler *)
  mutable sample : (access -> int -> bool -> unit) option;
      (* address-sampling profiler hook: (access, vpn, tlb_hit) on every
         successful translation; decimation is the hook's own business *)
  mutable retire : int -> unit;
      (* per-retired-instruction hook with the instruction's eip (the
         kernel's forensic trace ring); [ignore] when nothing listens *)
  mutable cache : Bbcache.t option;
      (* decoded basic-block cache; [None] = per-instruction dispatch *)
  exit : exit;  (* the CPU's exit registers, rewritten by every dispatch call *)
}

let create () =
  {
    ctrl = None;
    sample = None;
    retire = ignore;
    cache = None;
    exit =
      {
        attempts = 0;
        retired = 0;
        code = No_trap;
        syscall = 0;
        ud_eip = 0;
        ud_opcode = 0;
        gp_reason = "";
        debug = false;
      };
  }
