let mask32 = Isa.Encode.mask32
let sign32 = Isa.Decode.sign32

type regs = {
  gpr : int array;
  mutable eip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable tf : bool;
}

let create_regs () = { gpr = Array.make 8 0; eip = 0; zf = false; sf = false; tf = false }

let copy_regs r = { r with gpr = Array.copy r.gpr }

let get r reg = r.gpr.(Isa.Reg.to_int reg)
let set r reg v = r.gpr.(Isa.Reg.to_int reg) <- mask32 v

(* The four control-transfer shapes a CFI monitor distinguishes. *)
type ctrl_kind = Exec_env.ctrl_kind =
  | Call_direct
  | Call_indirect
  | Return
  | Jump_indirect

let ctrl_kind_name = function
  | Call_direct -> "call"
  | Call_indirect -> "call*"
  | Return -> "ret"
  | Jump_indirect -> "jmp*"

type exit_code = Exec_env.exit_code =
  | No_trap
  | Syscall
  | Page_fault
  | Invalid_opcode
  | General_protection

type exit = Exec_env.exit = {
  mutable attempts : int;
  mutable retired : int;
  mutable code : exit_code;
  mutable syscall : int;
  mutable ud_eip : int;
  mutable ud_opcode : int;
  mutable gp_reason : string;
  mutable debug : bool;
}

let exit_code_name = function
  | No_trap -> "no_trap"
  | Syscall -> "syscall"
  | Page_fault -> "page_fault"
  | Invalid_opcode -> "invalid_opcode"
  | General_protection -> "general_protection"

(* One formatter for every exit; the page-fault arm is the canonical
   [Mmu.pp_fault] over the pending-fault registers. *)
let pp_exit mmu ppf (x : exit) =
  match x.code with
  | No_trap -> Fmt.string ppf "no trap"
  | Syscall -> Fmt.pf ppf "syscall eax=%d" x.syscall
  | Page_fault -> Mmu.pp_fault ppf (Mmu.pending_fault mmu)
  | Invalid_opcode -> Fmt.pf ppf "#UD eip=0x%08x opcode=0x%02x" x.ud_eip x.ud_opcode
  | General_protection -> Fmt.pf ppf "#GP %s" x.gp_reason

let set_flags r v =
  let v = mask32 v in
  r.zf <- v = 0;
  r.sf <- v land 0x80000000 <> 0

let set_flags_signed r diff =
  r.zf <- diff = 0;
  r.sf <- diff < 0

(* The #UD and #GP exits latch their details here; the MMU already traced
   its own faults, so these two surface in the trace stream from here. *)
let trace_trap mmu x =
  let obs = Mmu.obs mmu in
  if Obs.enabled obs then
    Obs.event obs ~cat:"cpu" "cpu.trap"
      ~args:[ ("fault", Obs.Json.Str (Fmt.str "%a" (pp_exit mmu) x)) ]

let invalid_opcode mmu x ~eip ~opcode =
  x.ud_eip <- eip;
  x.ud_opcode <- opcode;
  x.code <- Invalid_opcode;
  trace_trap mmu x;
  Invalid_opcode

let general_protection mmu x reason =
  x.gp_reason <- reason;
  x.code <- General_protection;
  trace_trap mmu x;
  General_protection

let push mmu r v =
  let sp = mask32 (get r ESP - 4) in
  Mmu.Fast.write32 mmu ~from_user:true sp v;
  set r ESP sp

let binop r d v ~next =
  set r d v;
  set_flags r v;
  r.eip <- next;
  No_trap

let jump_if r cond target ~next =
  (match target with
  | Isa.Insn.Rel disp -> r.eip <- (if cond then mask32 (next + disp) else next)
  | Isa.Insn.Lbl _ -> assert false);
  No_trap

(* Commit a control transfer to [target] unless the control-transfer
   monitor (when armed) denies it. The monitor runs after every memory
   access of the instruction, so a page fault cannot restart the
   instruction past a monitor side effect (a shadow-stack push would
   otherwise happen twice). A denied transfer surfaces as #GP; the monitor
   has already logged why. *)
let transfer ctrl mmu x r kind ~eip ~target ~next =
  match ctrl with
  | Some f when not (f ~kind ~site:eip ~target ~ret:next) ->
    general_protection mmu x
      (Fmt.str "cfi: %s site=0x%08x target=0x%08x" (ctrl_kind_name kind) eip target)
  | None | Some _ ->
    r.eip <- target;
    No_trap

(* Execute one already-decoded instruction at [eip] whose encoding is
   [next - eip] bytes. Register state is only committed once every memory
   access of the instruction has succeeded, so a faulting instruction can be
   transparently restarted after the kernel services the fault — the
   restart-after-page-fault semantics Algorithms 1 and 2 depend on. Shared
   verbatim between the per-instruction interpreter ([step], which decodes
   first) and the block dispatcher ([run_block], which replays a cached
   decode), so the two dispatch modes cannot drift. Returns [No_trap] for
   a retired instruction, [Syscall] (number latched in [x]) or
   [General_protection] (reason latched in [x]); a page fault raises
   [Mmu.Pending_fault]. Allocates nothing except on the #GP path. *)
let exec_insn ~ctrl mmu x (r : regs) insn ~eip ~next =
  match (insn : Isa.Insn.t) with
  | Nop ->
    r.eip <- next;
    No_trap
  | Hlt -> general_protection mmu x "hlt in user mode"
  | Mov_ri (d, i) ->
    set r d i;
    r.eip <- next;
    No_trap
  | Mov_rr (d, s) ->
    set r d (get r s);
    r.eip <- next;
    No_trap
  | Load (d, b, off) ->
    let v = Mmu.Fast.read32 mmu ~from_user:true (get r b + off) in
    set r d v;
    r.eip <- next;
    No_trap
  | Store (b, off, s) ->
    Mmu.Fast.write32 mmu ~from_user:true (get r b + off) (get r s);
    r.eip <- next;
    No_trap
  | Loadb (d, b, off) ->
    let v = Mmu.Fast.read8 mmu ~from_user:true (get r b + off) in
    set r d v;
    r.eip <- next;
    No_trap
  | Storeb (b, off, s) ->
    Mmu.Fast.write8 mmu ~from_user:true (get r b + off) (get r s land 0xFF);
    r.eip <- next;
    No_trap
  | Push s ->
    push mmu r (get r s);
    r.eip <- next;
    No_trap
  | Pop d ->
    let sp = get r ESP in
    let v = Mmu.Fast.read32 mmu ~from_user:true sp in
    set r ESP (sp + 4);
    set r d v;
    r.eip <- next;
    No_trap
  | Lea (d, b, off) ->
    set r d (get r b + off);
    r.eip <- next;
    No_trap
  | Add (d, s) -> binop r d (get r d + get r s) ~next
  | Sub (d, s) -> binop r d (get r d - get r s) ~next
  | Add_ri (d, i) -> binop r d (get r d + i) ~next
  | Cmp (a, b) ->
    set_flags_signed r (sign32 (get r a) - sign32 (get r b));
    r.eip <- next;
    No_trap
  | Cmp_ri (a, i) ->
    set_flags_signed r (sign32 (get r a) - i);
    r.eip <- next;
    No_trap
  | And_ (d, s) -> binop r d (get r d land get r s) ~next
  | Or_ (d, s) -> binop r d (get r d lor get r s) ~next
  | Xor (d, s) -> binop r d (get r d lxor get r s) ~next
  | Mul (d, s) -> binop r d (get r d * get r s) ~next
  | Shl (d, i) -> binop r d (get r d lsl (i land 31)) ~next
  | Shr (d, i) -> binop r d (get r d lsr (i land 31)) ~next
  | Jmp t -> jump_if r true t ~next
  | Jz t -> jump_if r r.zf t ~next
  | Jnz t -> jump_if r (not r.zf) t ~next
  | Jl t -> jump_if r r.sf t ~next
  | Jge t -> jump_if r (not r.sf) t ~next
  | Jmp_r s -> transfer ctrl mmu x r Jump_indirect ~eip ~target:(get r s) ~next
  | Call t ->
    let disp = match t with Isa.Insn.Rel d -> d | Isa.Insn.Lbl _ -> assert false in
    push mmu r next;
    transfer ctrl mmu x r Call_direct ~eip ~target:(mask32 (next + disp)) ~next
  | Call_r s ->
    let target = get r s in
    push mmu r next;
    transfer ctrl mmu x r Call_indirect ~eip ~target ~next
  | Ret ->
    let sp = get r ESP in
    let v = Mmu.Fast.read32 mmu ~from_user:true sp in
    let code = transfer ctrl mmu x r Return ~eip ~target:v ~next in
    if code = No_trap then set r ESP (sp + 4);
    code
  | Int 0x80 ->
    r.eip <- next;
    x.syscall <- get r EAX;
    Syscall
  | Int n -> general_protection mmu x (Fmt.str "int 0x%x unsupported" n)

(* Decode + execute one instruction with a caller-chosen fetch for its
   bytes: the byte-at-a-time interpreter, shared by [step] and by the
   block dispatcher's fallback for negative blocks. Returns the exit code;
   a page fault anywhere in the fetch or the execution is [Page_fault],
   its details in the MMU's pending-fault registers (every [Page_fault]
   raise carries the record just latched there). *)
let decode_exec ~ctrl ~fetch mmu x (r : regs) =
  let eip = r.eip in
  match
    match Isa.Decode.decode ~fetch eip with
    | Error (Isa.Decode.Bad_opcode op) -> invalid_opcode mmu x ~eip ~opcode:op
    | Error (Isa.Decode.Bad_register v) ->
      general_protection mmu x (Fmt.str "bad register field %d at eip=0x%08x" v eip)
    | Error Isa.Decode.Truncated ->
      (* unreachable with this fetch-callback decoder (no end-of-stream);
         the page-edge-bounded block builder *does* see [Truncated] — it
         ends the block there and dispatch falls back to this path, whose
         per-byte fetches fault (or succeed) across the page boundary
         exactly as real hardware would *)
      invalid_opcode mmu x ~eip ~opcode:(-1)
    | Ok insn -> exec_insn ~ctrl mmu x r insn ~eip ~next:(eip + Isa.Insn.size insn)
  with
  | code -> code
  | exception (Mmu.Pending_fault | Mmu.Page_fault _) -> Page_fault

(* Account one attempted instruction at [eip] that ended with [code]:
   a retired instruction charges its cycles inline (the caller flushes
   [retired] into [Cost.insns]), and the retire hook sees every
   instruction that retired or made a syscall. *)
let account (env : Exec_env.t) cost x ~eip code =
  x.attempts <- x.attempts + 1;
  match code with
  | No_trap ->
    env.retire eip;
    cost.Cost.cycles <- cost.Cost.cycles + cost.Cost.params.Cost.insn;
    x.retired <- x.retired + 1
  | Syscall ->
    env.retire eip;
    x.code <- Syscall
  | Page_fault | Invalid_opcode | General_protection -> x.code <- code

let reset (x : exit) =
  x.attempts <- 0;
  x.retired <- 0;
  x.code <- No_trap;
  x.debug <- false

(* The trap flag's #DB follows an instruction that retired or made a
   syscall; a faulting instruction raises none. *)
let set_debug x ~tf = x.debug <- tf && x.attempts > 0 && (x.code = No_trap || x.code = Syscall)

(* One instruction, byte-at-a-time: the classic interpreter, for machines
   whose block dispatch is off. Leaves exactly the exit registers a
   one-instruction [run_block] would. *)
let step mmu (r : regs) =
  let env = Mmu.env mmu in
  let x = env.Exec_env.exit in
  let tf = r.tf and eip = r.eip in
  reset x;
  let code =
    decode_exec ~ctrl:env.Exec_env.ctrl
      ~fetch:(fun a -> Mmu.Fast.fetch8 mmu ~from_user:true a)
      mmu x r
  in
  account env (Mmu.cost mmu) x ~eip code;
  set_debug x ~tf;
  x

(* The block dispatcher's exact fallback for one instruction whose first
   byte has already been translated to packed paddr [pa0] (a negative block:
   undecodable first byte, or operands straddling the page edge). The byte-0
   fetch must not retranslate — that would double the TLB traffic relative
   to the per-instruction interpreter — so it replays only the icache touch
   and the physical read; every later byte goes through the full fast-path
   fetch, faulting across the page boundary exactly as [step] would. *)
let decode_exec_at_pa0 (env : Exec_env.t) mmu x (r : regs) pa0 =
  let eip = r.eip in
  let phys = Mmu.phys mmu in
  let fetch a =
    if a = eip then begin
      Mmu.touch_icache mmu pa0;
      Phys.read8_at phys pa0
    end
    else Mmu.Fast.fetch8 mmu ~from_user:true a
  in
  decode_exec ~ctrl:env.Exec_env.ctrl ~fetch mmu x r

(* Dispatch decoded basic blocks until an instruction traps, the attempt
   budget [max_insns] is exhausted, or the cycle counter reaches
   [tick_limit] (the scheduler's next timer interrupt — checked before
   every instruction, exactly where the per-instruction loop calls
   [timer_tick]). With the trap flag set the budget is one instruction,
   so Algorithm 2's single step runs out of the block cache too.

   Equivalence discipline — every architectural side effect of the
   per-instruction interpreter is replayed, per instruction:
   - byte 0 of every instruction goes through a real [translate_result]
     (ITLB hit/walk/fill, walk charges, obs events, sampling) — this is
     also what revalidates the mapping, so pagetable remaps and [invlpg]
     need no cache invalidation at all;
   - bytes 1..size-1 are same-page by construction (blocks are
     page-bounded). With no sampling hook and no icache model their only
     architectural effect is ITLB hit accounting, batched through
     [Tlb.note_hits]; with either installed, each byte replays a real
     translation + icache touch so decimation order and cache-line
     traffic are preserved exactly;
   - retired instructions charge [params.insn] cycles inline (the timer
     comparison and the sampling hook both read [cycles] mid-block) while
     the [insns] counter and retire-rate metrics are batched by the
     caller from [retired];
   - staleness ([Bbcache.stale]) is checked before every instruction, not
     just at block entry, so self-modifying code that rewrites its own
     block takes effect at the very next instruction boundary.

   The loop keeps its state in the exit registers and two local refs that
   never escape (the compiler keeps them in registers): a call allocates
   nothing unless it builds a block or takes the byte-at-a-time fallback. *)
let run_block (env : Exec_env.t) mmu (r : regs) ~max_insns ~tick_limit =
  let cache =
    match env.Exec_env.cache with
    | Some c -> c
    | None -> invalid_arg "Cpu.run_block: no block cache installed"
  in
  let x = env.Exec_env.exit in
  let ctrl = env.Exec_env.ctrl in
  let cost = Mmu.cost mmu in
  let page_shift = Phys.page_shift (Mmu.phys mmu) in
  let itlb = Mmu.itlb mmu in
  (* Batched fetch accounting is only exact when nothing observes the
     individual byte fetches. *)
  let fast_fetch = env.Exec_env.sample = None && Mmu.icache mmu = None in
  let tf = r.tf in
  let max_insns = if tf then min max_insns 1 else max_insns in
  reset x;
  (* the cursor [(cur, idx)] names the instruction expected next, if it
     falls through inside [cur]; [Bbcache.none] means "no current block" *)
  let cur = ref Bbcache.none and idx = ref 0 in
  while x.code = No_trap && x.attempts < max_insns && cost.Cost.cycles < tick_limit do
    let eip = r.eip in
    let pa0 = Mmu.translate_result mmu ~from_user:true Mmu.Fetch eip in
    if pa0 < 0 then account env cost x ~eip Page_fault
    else begin
      let c = !cur and i = !idx in
      let hit =
        i < c.Bbcache.n
        && pa0 = c.Bbcache.b_pa0 + c.Bbcache.offs.(i)
        && not (Bbcache.stale cache c)
      in
      let b = if hit then c else Bbcache.lookup cache pa0 in
      let i = if hit then i else 0 in
      if b.Bbcache.n = 0 then begin
        (* negative block: byte-at-a-time fallback for this one pc *)
        account env cost x ~eip (decode_exec_at_pa0 env mmu x r pa0);
        cur := Bbcache.none
      end
      else begin
        let sz = b.Bbcache.sizes.(i) in
        Mmu.touch_icache mmu pa0;
        if sz > 1 then
          if fast_fetch then Tlb.note_hits itlb (mask32 eip lsr page_shift) (sz - 1)
          else
            for k = 1 to sz - 1 do
              let pa = Mmu.translate_result mmu ~from_user:true Mmu.Fetch (eip + k) in
              Mmu.touch_icache mmu pa
            done;
        let code =
          match exec_insn ~ctrl mmu x r b.Bbcache.insns.(i) ~eip ~next:(eip + sz) with
          | code -> code
          | exception (Mmu.Pending_fault | Mmu.Page_fault _) -> Page_fault
        in
        account env cost x ~eip code;
        if r.eip = eip + sz then begin
          cur := b;
          idx := i + 1
        end
        else cur := Bbcache.none
      end
    end
  done;
  set_debug x ~tf;
  x
