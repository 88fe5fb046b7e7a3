module Policy = Policy
module Response = Response
module Splitter = Splitter

type mechanism = Tlb_desync | Soft_tlb | Dual_cr3

let mechanism_name = function
  | Tlb_desync -> "tlb-desync"
  | Soft_tlb -> "soft-tlb"
  | Dual_cr3 -> "dual-cr3"

type itlb_load = Single_step | Ret_gadget

(* Desync audit (the lib/inject TLB guard routes here): is a cached TLB
   entry one this defense could legitimately have loaded for this PTE?
   Split pages are *deliberately* desynced — the cached user bit disagrees
   with the (supervisor-restricted) PTE by design — so the invariants are:
   frame routing (fetches hit the code copy, data accesses the data copy),
   user always true (every split fill happens through an unrestricted PTE
   or a forced user=1 load), and writable/nx mirroring the PTE (Algorithm
   1's window never varies them). Non-split pages have no such window: a
   surviving entry must mirror the live PTE exactly (every legitimate PTE
   change invlpgs or flushes). *)
let entry_consistent ~access (pte : Kernel.Pte.t option) (e : Hw.Tlb.entry) =
  match pte with
  | None -> false (* phantom: no mapping behind the cached translation *)
  | Some pte ->
    if Kernel.Pte.is_split pte then
      let want =
        match access with
        | Hw.Mmu.Fetch -> Kernel.Pte.code_frame pte
        | Hw.Mmu.Read | Hw.Mmu.Write -> Kernel.Pte.data_frame pte
      in
      e.frame = want && e.user && e.writable = pte.writable && e.nx = pte.nx
    else
      pte.present && e.frame = pte.frame && e.user = pte.user
      && e.writable = pte.writable && e.nx = pte.nx

let protection ?(policy = Policy.All_pages) ?(response = Response.Break) ?(nx = false)
    ?(mechanism = Tlb_desync) ?(itlb_load = Single_step) () : Kernel.Protection.t =
  let page_size ctx = Hw.Phys.page_size ctx.Kernel.Protection.phys in
  (* The PTE behind [addr], for the trap handlers: raises [Not_found]
     instead of allocating an option. *)
  let find_pte (proc : Kernel.Proc.t) ctx addr =
    Hashtbl.find proc.aspace.ptes (addr / page_size ctx)
  in

  let on_page_mapped (ctx : Kernel.Protection.ctx) _proc (region : Kernel.Aspace.region) (pte : Kernel.Pte.t) =
    if Policy.should_split policy region ~vpn:pte.vpn then begin
      Splitter.split_page ~restrict:(mechanism = Tlb_desync) ctx pte;
      (* with dedicated CR3-C/CR3-D hardware the split view is applied by
         the walkers; newly mapped pages need the current views reloaded
         only if the PTE pre-dates the CR3 load, which invlpg covers *)
      if mechanism = Dual_cr3 then Hw.Mmu.invlpg ctx.mmu pte.vpn
    end
    else if nx && not region.execable then pte.nx <- true
  in

  (* Software-managed-TLB routing (paper S4.7): the TLB-miss handler simply
     loads the correct copy for the access kind — no supervisor-bit games,
     no single-stepping. *)
  let on_tlb_fill (ctx : Kernel.Protection.ctx) (proc : Kernel.Proc.t) (f : Hw.Mmu.fault)
      (pte : Kernel.Pte.t) =
    if Splitter.is_active_split pte then begin
      (* the handler's extra work: test the split bit, pick the copy *)
      Hw.Cost.charge ctx.cost 25;
      Obs.count ctx.obs "split.tlb_routes";
      let s = Option.get pte.split in
      let frame =
        match f.access with
        | Hw.Mmu.Fetch -> s.code_frame
        | Hw.Mmu.Read | Hw.Mmu.Write -> s.data_frame
      in
      Kernel.Protection.Fill
        { vpn = pte.vpn; frame; user = true; writable = pte.writable; nx = false }
    end
    else if nx && pte.nx && f.access = Hw.Mmu.Fetch then begin
      proc.detections <- proc.detections + 1;
      Kernel.Event_log.add ctx.log
        (Kernel.Event_log.Injection_detected { pid = proc.pid; eip = f.addr; mode = "nx" });
      Kernel.Protection.Deny_fill
    end
    else Kernel.Protection.Default_fill
  in

  (* Algorithm 1: the split-memory page-fault handler. *)
  let on_protection_fault (ctx : Kernel.Protection.ctx) (proc : Kernel.Proc.t) (f : Hw.Mmu.fault) =
    match find_pte proc ctx f.addr with
    | pte when Splitter.is_active_split pte && (not pte.user) && f.from_user ->
      let since = ctx.cost.cycles in
      Hw.Cost.charge_split_pf ctx.cost;
      let s = Option.get pte.split in
      let result =
        match f.access with
        | Hw.Mmu.Fetch -> (
          pte.frame <- s.code_frame;
          Kernel.Pte.unrestrict pte;
          match itlb_load with
          | Single_step ->
            (* Code access: single-step the restarted instruction so the
               ITLB gets filled; the debug-interrupt handler re-restricts. *)
            proc.pending_fault_addr <- f.addr;
            proc.regs.tf <- true;
            if Obs.enabled ctx.obs then
              Obs.span_begin ctx.obs
                ~key:("ss:" ^ string_of_int proc.pid)
                ~cat:"split" "split.single_step"
                ~args:[ ("addr", Obs.Json.Str (Fmt.str "0x%08x" f.addr)) ];
            Kernel.Protection.Handled
          | Ret_gadget ->
            (* The paper's discarded alternative (S4.2.4): plant a ret at the
               end of the code copy, "call" it to fill the ITLB, restore the
               byte. Both stores hit icache lines and pay the coherency
               penalty — which is why the paper found this slower. *)
            let psz = page_size ctx in
            let off = psz - 1 in
            let saved = Hw.Phys.read8 ctx.phys ~frame:s.code_frame ~off in
            Hw.Mmu.kernel_code_write ctx.mmu ~frame:s.code_frame ~off 0x32;
            ignore (Hw.Mmu.fetch8 ctx.mmu ~from_user:true ((f.addr / psz * psz) + off));
            Hw.Mmu.kernel_code_write ctx.mmu ~frame:s.code_frame ~off saved;
            Kernel.Pte.restrict pte;
            Kernel.Protection.Handled)
        | Hw.Mmu.Read | Hw.Mmu.Write ->
          (* Data access: pagetable walk — point at the data copy,
             unrestrict, touch a byte to load the DTLB, restrict again. *)
          pte.frame <- s.data_frame;
          Kernel.Pte.unrestrict pte;
          Hw.Mmu.touch_read ctx.mmu f.addr;
          Kernel.Pte.restrict pte;
          Kernel.Protection.Handled
      in
      if Obs.enabled ctx.obs then
        Obs.complete ctx.obs ~cat:"split" ~since
          (match f.access with
          | Hw.Mmu.Fetch -> "split.alg1_fetch"
          | Hw.Mmu.Read | Hw.Mmu.Write -> "split.alg1_data")
          ~args:
            [ ("pid", Obs.Json.Int proc.pid);
              ("addr", Obs.Json.Str (Fmt.str "0x%08x" f.addr)) ];
      result
    | pte when nx && pte.nx && f.access = Hw.Mmu.Fetch ->
      (* The execute-disable bit caught a fetch from a non-split data
         page (combined deployment mode). *)
      Kernel.Event_log.add ctx.log
        (Kernel.Event_log.Injection_detected { pid = proc.pid; eip = f.addr; mode = "nx" });
      proc.detections <- proc.detections + 1;
      Kernel.Protection.Not_ours
    | _ | (exception Not_found) -> Kernel.Protection.Not_ours
  in

  (* Algorithm 2: the debug-interrupt handler. *)
  let on_debug_trap (ctx : Kernel.Protection.ctx) (proc : Kernel.Proc.t) =
    let addr = proc.pending_fault_addr in
    if addr = Kernel.Proc.no_fault_addr then false
    else begin
      Hw.Cost.charge_single_step ctx.cost;
      (match find_pte proc ctx addr with
      | pte when Splitter.is_active_split pte -> Kernel.Pte.restrict pte
      | _ | (exception Not_found) -> ());
      proc.regs.tf <- false;
      proc.pending_fault_addr <- Kernel.Proc.no_fault_addr;
      (if Obs.enabled ctx.obs then
         match
           Obs.span_end ctx.obs
             ~key:("ss:" ^ string_of_int proc.pid)
             ~cat:"split" "split.single_step"
         with
         | Some window ->
           Obs.Metrics.observe
             (Obs.histogram ctx.obs "split.single_step_window_cycles")
             window
         | None -> ());
      true
    end
  in

  (* Algorithm 3 + response modes: the invalid-opcode (SIGILL) path fires
     when the processor fetched from a pristine code copy at an address the
     attacker thought held code. *)
  let on_invalid_opcode (ctx : Kernel.Protection.ctx) (proc : Kernel.Proc.t) ~eip ~opcode =
    ignore opcode;
    match find_pte proc ctx eip with
    | pte when Splitter.is_active_split pte -> (
      proc.detections <- proc.detections + 1;
      if Obs.enabled ctx.obs then begin
        Obs.count ctx.obs "split.detections";
        Obs.event ctx.obs ~cat:"split" "split.detection"
          ~args:
            [ ("pid", Obs.Json.Int proc.pid);
              ("eip", Obs.Json.Str (Fmt.str "0x%08x" eip));
              ("response", Obs.Json.Str (Response.name response)) ]
      end;
      Kernel.Event_log.add ctx.log
        (Kernel.Event_log.Injection_detected
           { pid = proc.pid; eip; mode = Response.name response });
      (* Clear the single-step bookkeeping left over from the ITLB load of
         the detection fetch. *)
      proc.pending_fault_addr <- Kernel.Proc.no_fault_addr;
      proc.regs.tf <- false;
      match response with
      | Response.Break -> Kernel.Protection.Kill_process "code injection (break mode)"
      | Response.Recovery -> (
        match proc.recovery_handler with
        | None -> Kernel.Protection.Kill_process "code injection (recovery: no handler)"
        | Some handler ->
          (* hand the faulting EIP to the handler for diagnostics and
             transfer control; the handler must establish its own stack *)
          Hw.Cpu.set proc.regs Isa.Reg.EAX eip;
          proc.regs.eip <- handler;
          Kernel.Event_log.add ctx.log
            (Kernel.Event_log.Recovery_invoked
               { pid = proc.pid; handler; faulting_eip = eip });
          Kernel.Protection.Resume)
      | Response.Observe { sebek } ->
        Splitter.lock_to_data ctx pte;
        if sebek then proc.sebek_active <- true;
        Kernel.Protection.Resume
      | Response.Forensics { payload } -> (
        let psz = page_size ctx in
        let s = Option.get pte.split in
        let off = eip mod psz in
        let len = min 20 (psz - off) in
        let bytes =
          let b = Bytes.create len in
          Hw.Phys.read_into ctx.phys ~frame:s.data_frame ~off ~len b ~pos:0;
          Bytes.unsafe_to_string b
        in
        Kernel.Event_log.add ctx.log (Kernel.Event_log.Shellcode_dump { pid = proc.pid; eip; bytes });
        (* the control-flow trail that led into the injected code *)
        let trail = Kernel.Proc.trace_trail proc in
        let tail =
          let n = List.length trail in
          List.filteri (fun i _ -> i >= n - 8) trail
        in
        Kernel.Event_log.add ctx.log
          (Kernel.Event_log.Execution_trail { pid = proc.pid; eips = tail });
        match payload with
        | None -> Kernel.Protection.Kill_process "code injection (forensics mode)"
        | Some code ->
          let base = eip / psz * psz in
          (* the code frame may be a loader-COW frame shared with sibling
             processes — privatize before overwriting it with the decoy *)
          let code_frame = Kernel.Frame_alloc.unshare ctx.alloc s.code_frame in
          if code_frame <> s.code_frame then begin
            if pte.frame = s.code_frame then pte.frame <- code_frame;
            pte.split <- Some { s with code_frame }
          end;
          Hw.Phys.blit_from_string ctx.phys ~frame:code_frame ~off:0 code;
          proc.regs.eip <- base;
          Hw.Mmu.invlpg ctx.mmu (eip / psz);
          Kernel.Event_log.add ctx.log
            (Kernel.Event_log.Forensic_injected { pid = proc.pid; new_eip = base });
          Kernel.Protection.Resume))
    | _ | (exception Not_found) -> Kernel.Protection.Benign
  in

  {
    name =
      Fmt.str "split-memory(%s,%s%s%s)" (Policy.name policy) (Response.name response)
        (if nx then ",nx" else "")
        (match mechanism with
        | Tlb_desync -> ""
        | Soft_tlb -> ",soft-tlb"
        | Dual_cr3 -> ",dual-cr3");
    nx_hardware = nx;
    dual_pagetables = (mechanism = Dual_cr3);
    on_page_mapped;
    on_protection_fault;
    on_debug_trap;
    on_invalid_opcode;
    on_tlb_fill;
    ctrl_monitor = None;
  }
