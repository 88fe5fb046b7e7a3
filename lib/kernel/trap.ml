(* The trap layer: the dispatch pipeline that routes every class of CPU
   exit to its handler — the paper's architecture in miniature, since the
   whole defense lives in trap handlers: Algorithm 1 in the page-fault
   handler ([Protection.on_protection_fault]/[on_page_mapped]), Algorithm 2
   in the debug-interrupt handler ([on_debug_trap]), Algorithm 3 in the
   invalid-opcode handler ([on_invalid_opcode]).

   Cost-charging discipline (must stay bit-identical across refactors):
   - retired instruction        -> its cycles inline in the CPU, its
     [insns] count by the scheduler; not a trap, nothing delivered
   - syscall                    -> charge_insn + charge_syscall
   - page fault                 -> charge_trap, EXCEPT software TLB-miss
     traps, whose cost is charged by the fill / full service itself
   - #UD, #GP                   -> charge_trap
   - #DB (trap flag, runnable)  -> charge_trap *)

module M = Machine

(* ------------------------------------------------------------------ *)
(* Page-fault service                                                  *)
(* ------------------------------------------------------------------ *)

(* Software-managed-TLB miss service (SPARC-style, paper §4.7): permission
   checks and COW happen here, then the protection chooses the frame to
   load (split routing) or the kernel fills straight from the PTE. *)
let handle_tlb_miss (m : M.t) (p : Proc.t) (f : Hw.Mmu.fault) (pte : Pte.t) =
  if f.access = Hw.Mmu.Write && pte.cow && pte.orig_writable then begin
    (* COW is a full kernel page-fault service even on soft-TLB machines *)
    Hw.Cost.charge_trap m.cost;
    M.cow_service m pte
  end
  else if
    (f.from_user && (not pte.user) && not (Pte.is_split pte))
    || (f.access = Hw.Mmu.Write && not pte.writable)
  then M.kill m p Proc.Sigsegv
  else
    match m.protection.on_tlb_fill m.ctx p f pte with
    | Protection.Fill entry -> Hw.Mmu.load_tlb m.mmu f.access entry
    | Protection.Default_fill ->
      Hw.Mmu.load_tlb m.mmu f.access
        { vpn = pte.vpn; frame = pte.frame; user = pte.user; writable = pte.writable;
          nx = pte.nx }
    | Protection.Deny_fill -> M.kill m p Proc.Sigsegv

let handle_page_fault (m : M.t) (p : Proc.t) (f : Hw.Mmu.fault) =
  let vpn = f.addr / m.page_size in
  match Hashtbl.find p.aspace.ptes vpn with
  | exception Not_found ->
    (* demand paging is a full kernel fault even when the hardware
       delivered it as a lightweight TLB-miss trap *)
    if f.kind = Hw.Mmu.Tlb_miss then Hw.Cost.charge_trap m.cost;
    (match Aspace.find_region p.aspace vpn with
    | Some region -> ignore (M.map_demand_page m p region vpn)
    | None -> M.kill m p Proc.Sigsegv)
  | pte -> (
    match f.kind with
    | Hw.Mmu.Not_present -> M.kill m p Proc.Sigsegv
    | Hw.Mmu.Tlb_miss -> handle_tlb_miss m p f pte
    | Hw.Mmu.Protection ->
      if f.access = Hw.Mmu.Write && pte.cow && pte.orig_writable then M.cow_service m pte
      else (
        match m.protection.on_protection_fault m.ctx p f with
        | Protection.Handled -> ()
        | Protection.Not_ours -> M.kill m p Proc.Sigsegv))

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* One service function per trap class: charge its cost, route it to its
   handler (through the [Protection.t] hooks where the class has one), and
   feed the per-class observability instruments. *)

let serve_syscall ?table (m : M.t) (p : Proc.t) n =
  let table = match table with Some t -> t | None -> Syscalls.default () in
  let since = m.cost.cycles in
  Hw.Cost.charge_insn m.cost;
  Hw.Cost.charge_syscall m.cost;
  (match m.syscall_squeeze with
  | Some squeeze when squeeze p n ->
    (* injected transient kernel failure: restart the syscall
       transparently (the ERESTARTNOINTR discipline) by rewinding the
       guest over its [int 0x80] — the retry re-dispatches *)
    p.regs.eip <- Isa.Encode.mask32 (p.regs.eip - 2)
  | _ -> Syscalls.dispatch table m p n);
  match m.hot with
  | None -> ()
  | Some h ->
    Obs.Metrics.incr h.h_retired;
    Obs.Metrics.incr h.h_syscalls;
    Obs.Metrics.observe h.h_syscall_cycles (m.cost.cycles - since);
    Obs.Metrics.incr_label h.h_sys_by_name (Syscalls.name table n);
    Obs.Metrics.incr_label h.h_sys_by_pid (string_of_int p.pid)

let serve_page_fault (m : M.t) (p : Proc.t) (f : Hw.Mmu.fault) =
  let since = m.cost.cycles in
  (* software TLB-miss traps are lightweight (their cost is charged by
     the fill itself); everything else is a full kernel trap *)
  if f.kind <> Hw.Mmu.Tlb_miss then Hw.Cost.charge_trap m.cost;
  (* allocator exhaustion (real or injected) during fault service is
     contained by OOM-killing the faulting process *)
  (try handle_page_fault m p f with Frame_alloc.Out_of_frames -> M.oom_kill m p);
  match m.hot with
  | None -> ()
  | Some h ->
    Obs.Metrics.incr h.h_faults;
    Obs.Metrics.observe h.h_fault_cycles (m.cost.cycles - since);
    Obs.Metrics.incr_label h.h_faults_by_page (Fmt.str "0x%05x" (f.addr / m.page_size));
    Obs.Metrics.incr_label h.h_faults_by_pid (string_of_int p.pid);
    Obs.complete m.obs ~cat:"os" ~since "os.fault_service"
      ~args:[ ("pid", Obs.Json.Int p.pid); ("addr", Obs.Json.Str (Fmt.str "0x%08x" f.addr)) ]

let serve_invalid_opcode (m : M.t) (p : Proc.t) ~eip ~opcode =
  Hw.Cost.charge_trap m.cost;
  match m.protection.on_invalid_opcode m.ctx p ~eip ~opcode with
  | Protection.Benign -> M.kill m p Proc.Sigill
  | Protection.Resume -> ()
  | Protection.Kill_process _reason -> M.kill m p Proc.Sigill

let count_class (m : M.t) name =
  match m.hot with None -> () | Some h -> Obs.Metrics.incr_label h.h_traps_by_class name

(* Deliver what the exit registers hold: the primary trap first (retired
   instructions are not traps — the CPU charged them, the scheduler counts
   them), then the piggybacked #DB, which x86 raises after the instruction
   completes and only if the fault path didn't already unschedule the
   process. The fault record is built here, once, from the MMU's pending
   registers. *)
let deliver ?table (m : M.t) (p : Proc.t) (x : Hw.Cpu.exit) =
  if x.code <> Hw.Cpu.No_trap then count_class m (Hw.Cpu.exit_code_name x.code);
  (match x.code with
  | Hw.Cpu.No_trap -> ()
  | Hw.Cpu.Syscall -> serve_syscall ?table m p x.syscall
  | Hw.Cpu.Page_fault -> serve_page_fault m p (Hw.Mmu.pending_fault m.mmu)
  | Hw.Cpu.Invalid_opcode -> serve_invalid_opcode m p ~eip:x.ud_eip ~opcode:x.ud_opcode
  | Hw.Cpu.General_protection ->
    Hw.Cost.charge_trap m.cost;
    M.kill m p Proc.Sigsegv);
  if x.debug && Proc.is_runnable p then begin
    count_class m "debug_trap";
    Hw.Cost.charge_trap m.cost;
    if not (m.protection.on_debug_trap m.ctx p) then p.regs.tf <- false
  end
