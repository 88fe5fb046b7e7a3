(* The scheduler layer: round-robin run loop, quantum accounting, timer
   ticks, fuel handling, and the raw scheduler-state export consumed by
   lib/snap. Traps raised by the running process are handed to
   [Trap.deliver]; everything else here is pure CPU-time bookkeeping. *)

module M = Machine

type stop_reason = All_exited | All_blocked | Fuel_exhausted

(* The seed's wait-condition recheck, shared verbatim by both wake
   implementations — equivalence of the two rests on this being the one
   definition of "ready". *)
let ready (m : M.t) (p : Proc.t) cond =
  match cond with
  | Proc.Read_fd fd -> (
    match Hashtbl.find p.fds fd with
    | Read_end pipe -> not (Pipe.is_empty pipe) || not (Pipe.has_writers pipe)
    | Write_end _ -> true
    | exception Not_found -> true)
  | Proc.Write_fd fd -> (
    match Hashtbl.find p.fds fd with
    | Write_end pipe -> Pipe.space pipe > 0 || not (Pipe.has_readers pipe)
    | Read_end _ -> true
    | exception Not_found -> true)
  | Proc.Child target ->
    let children =
      List.filter (fun (c : Proc.t) -> target = 0 || c.pid = target) (M.children_of m p)
    in
    children = [] || List.exists Proc.is_zombie children
  | Proc.Sleep until_ -> m.cost.cycles >= until_

let wake_pid (m : M.t) pid =
  match Hashtbl.find m.procs pid with
  | p -> (
    match p.Proc.state with
    | Proc.Blocked cond ->
      if ready m p cond then begin
        p.state <- Proc.Runnable;
        M.enqueue m p
      end
      else M.register_wait m p cond
    | Proc.Runnable | Proc.Zombie _ -> ())
  | exception Not_found -> ()

(* Event-driven wake: drain the pending wakeups the pipes and the zombie
   transition fed since the last boundary, recheck each candidate in
   ascending pid order (the same order the scan visited them), and requeue
   the ready ones. A pending pid whose condition still does not hold is
   re-registered on its pipe, so the next state flip pends it again; pids
   pushed while rechecking wait for the next boundary. O(woken),
   independent of the process count. The common single wakeup allocates
   nothing. *)
let wake (m : M.t) =
  match Intq.length m.pending_wakeups with
  | 0 -> ()
  | 1 -> wake_pid m (Intq.pop m.pending_wakeups)
  | n ->
    let pids = Array.init n (fun _ -> Intq.pop m.pending_wakeups) in
    Array.sort Int.compare pids;
    Array.iteri (fun i pid -> if i = 0 || pid <> pids.(i - 1) then wake_pid m pid) pids

(* The seed's scan-everything wake, kept as the reference implementation
   for the equivalence harness (test/test_wake_equiv.ml). Clears the
   pending list too, so the two modes never mix. *)
let wake_scan (m : M.t) =
  Intq.clear m.pending_wakeups;
  List.iter
    (fun (p : Proc.t) ->
      match p.state with
      | Proc.Blocked cond ->
        if ready m p cond then begin
          p.state <- Proc.Runnable;
          M.enqueue m p
        end
      | Proc.Runnable | Proc.Zombie _ -> ())
    (M.procs m)

let rec dequeue_runnable (m : M.t) =
  if Intq.is_empty m.runq then raise_notrace Not_found;
  match Hashtbl.find m.procs (Intq.pop m.runq) with
  | p ->
    p.in_runq <- false;
    if Proc.is_runnable p then p else dequeue_runnable m
  | exception Not_found -> dequeue_runnable m

let all_zombie (m : M.t) =
  Hashtbl.fold (fun _ p acc -> acc && Proc.is_zombie p) m.procs true

let switch_to (m : M.t) (p : Proc.t) =
  match m.last_running with
  | Some pid when pid = p.pid -> ()
  | Some _ | None ->
    Hw.Cost.charge_ctx_switch m.cost;
    M.load_pagetables m p;
    m.last_running <- Some p.pid;
    (match m.switch_hook with Some f -> f p | None -> ());
    if Obs.enabled m.obs then
      Obs.event m.obs ~cat:"os" "os.ctx_switch" ~args:[ ("pid", Obs.Json.Int p.pid) ]

(* The timer interrupt: charges the trap, and every [daemon_period]-th tick
   a background task (kflushd, a logging daemon...) actually runs, which is
   a real context switch and flushes both TLBs. This is the background
   activity that keeps split pages re-faulting even in single-process
   workloads, as on the paper's testbed. *)
let timer_tick (m : M.t) =
  if m.cost.cycles >= m.next_tick then begin
    Hw.Cost.charge_trap m.cost;
    m.ticks <- m.ticks + 1;
    if m.cost.params.daemon_period > 0 && m.ticks mod m.cost.params.daemon_period = 0
    then begin
      Hw.Cost.charge_ctx_switch m.cost;
      Hw.Mmu.flush_tlbs m.mmu
    end;
    m.next_tick <- m.cost.cycles + m.cost.params.timer_tick_cycles
  end

let run_quantum ?table (m : M.t) (p : Proc.t) fuel =
  (* Arm the dispatch environment for this quantum: the control-transfer
     monitor (a closure built once per quantum, and not at all for non-CFI
     protections) and the retire hook — field writes otherwise. *)
  m.env.Hw.Exec_env.ctrl <-
    (match m.protection.ctrl_monitor with
    | Some mon when p.protected_ ->
      let ctx = m.ctx in
      Some (fun ~kind ~site ~target ~ret -> mon ctx p ~kind ~site ~target ~ret)
    | Some _ | None -> None);
  m.env.Hw.Exec_env.retire <- p.on_retire;
  (* Block dispatch is gated back to the per-instruction interpreter when
     something needs to observe individual byte fetches: a TLB integrity
     guard must see every cached-entry hit (lib/inject), and ECC scrubbing
     gives every physical read a side effect (lib/inject DRAM campaigns).
     The trap flag needs no gate: [run_block] single-steps it. *)
  let block_ok =
    m.bbcache <> None
    && (not (Hw.Mmu.has_tlb_guard m.mmu))
    && not (Hw.Phys.ecc_enabled m.phys)
  in
  let insns0 = m.cost.insns in
  let steps = ref m.quantum in
  while Proc.is_runnable p && !steps > 0 && !fuel > 0 do
    timer_tick m;
    let x =
      if block_ok then
        Hw.Cpu.run_block m.env m.mmu p.regs ~max_insns:(min !steps !fuel)
          ~tick_limit:m.next_tick
      else Hw.Cpu.step m.mmu p.regs
    in
    steps := !steps - x.attempts;
    fuel := !fuel - x.attempts;
    (* flush the batched retire accounting before any trap delivery: a
       trap handler may read the counters *)
    m.cost.insns <- m.cost.insns + x.retired;
    (match m.hot with
    | None -> ()
    | Some h -> Obs.Metrics.incr ~by:x.retired h.h_retired);
    if x.code <> Hw.Cpu.No_trap || x.debug then Trap.deliver ?table m p x
  done;
  p.p_insns <- p.p_insns + (m.cost.insns - insns0);
  if Proc.is_runnable p then M.enqueue m p

let wake_for scan = if scan then wake_scan else wake

let run ?(fuel = 50_000_000) ?(wake_scan = false) ?table (m : M.t) =
  let fuel = ref fuel in
  let do_wake = wake_for wake_scan in
  let rec loop () =
    M.expire_sleepers m;
    do_wake m;
    (* quantum-boundary hook: the machine is in a consistent, resumable
       state here (no quantum in flight), which is exactly where periodic
       checkpointing must sample it *)
    (match m.sched_hook with Some f -> f () | None -> ());
    (* fault injection fires at the same quiescent points, after any
       checkpointing hook has sampled the pre-fault state *)
    (match m.inject_hook with Some f -> f () | None -> ());
    if !fuel <= 0 then Fuel_exhausted
    else
      match dequeue_runnable m with
      | p ->
        switch_to m p;
        run_quantum ?table m p fuel;
        loop ()
      | exception Not_found ->
        if all_zombie m then All_exited
        else
          (* Tickless idle: nothing is runnable but a deadline is
             pending, so jump the clock straight to the earliest wake-up
             instead of spinning — this is what lets closed-loop serving
             clients "think" without burning simulated CPU. The next
             iteration expires the sleeper and runs it. *)
          let until_ = M.earliest_sleeper m in
          if until_ < 0 then All_blocked
          else begin
            if until_ > m.cost.cycles then Hw.Cost.charge m.cost (until_ - m.cost.cycles);
            loop ()
          end
  in
  let stop = loop () in
  (* A run allocates almost nothing per instruction, so it no longer fills
     the minor heap, and the collections that used to happen inside it —
     with the major-heap work they drive — were left to whatever allocates
     next: building the next machine or snapshotting this one, short calls
     that then took up to half again as long. One minor collection here
     keeps that work inside the run that caused it. *)
  Gc.minor ();
  stop

(* ------------------------------------------------------------------ *)
(* Snapshot support: raw scheduler/system state exposure               *)
(* ------------------------------------------------------------------ *)

type state = {
  s_runq : int list;  (* front of the queue first *)
  s_rng : Random.State.t;
  s_last_running : int option;
  s_next_pid : int;
  s_next_tick : int;
  s_ticks : int;
  s_lib_cursor : int;
}

let state (m : M.t) =
  {
    s_runq = Intq.to_list m.runq;
    s_rng = Random.State.copy m.rng;
    s_last_running = m.last_running;
    s_next_pid = m.next_pid;
    s_next_tick = m.next_tick;
    s_ticks = m.ticks;
    s_lib_cursor = m.lib_cursor;
  }

let restore (m : M.t) (s : state) =
  Intq.clear m.runq;
  List.iter
    (fun pid ->
      (match M.proc m pid with Some p -> p.in_runq <- true | None -> ());
      Intq.push m.runq pid)
    s.s_runq;
  m.rng <- Random.State.copy s.s_rng;
  m.last_running <- s.s_last_running;
  m.next_pid <- s.s_next_pid;
  m.next_tick <- s.s_next_tick;
  m.ticks <- s.s_ticks;
  m.lib_cursor <- s.s_lib_cursor
