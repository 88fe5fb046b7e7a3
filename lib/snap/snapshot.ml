let version = 2
let magic = "SMEMSNP1"

type trigger = { t_pid : int; t_eip : int; t_mode : string }

(* ------------------------------------------------------------------ *)
(* State model: plain immutable data, no live kernel references        *)
(* ------------------------------------------------------------------ *)

type pte_state = {
  ps_vpn : int;
  ps_kind : int;
  ps_frame : int;
  ps_present : bool;
  ps_writable : bool;
  ps_user : bool;
  ps_nx : bool;
  ps_cow : bool;
  ps_orig_writable : bool;
  ps_split : (int * int * bool) option;  (* code_frame, data_frame, locked *)
}

type region_state = {
  rs_lo : int;
  rs_hi : int;
  rs_kind : int;
  rs_writable : bool;
  rs_execable : bool;
  rs_source : int option;  (* Image_bytes: index into [sn_segments]; None = Zero *)
}

type proc_state = {
  pr_pid : int;
  pr_name : string;
  pr_parent : int option;
  pr_gpr : int array;
  pr_eip : int;
  pr_zf : bool;
  pr_sf : bool;
  pr_tf : bool;
  pr_state : int;  (* 0 runnable, 1 blocked, 2 zombie *)
  pr_wait : (int * int) option;  (* blocked: (cond tag, arg) *)
  pr_exit : (int * int) option;  (* zombie: (status tag, arg) *)
  pr_next_fd : int;
  pr_pending_fault : int option;
  pr_sebek : bool;
  pr_detections : int;
  pr_recovery : int option;
  pr_trace : int array;
  pr_trace_pos : int;
  pr_insns : int;  (* per-process retired-instruction count *)
  pr_protected : bool;
  pr_console_in : int;  (* pipe registry ids *)
  pr_console_out : int;
  pr_fds : (int * bool * int) list;  (* fd, is_write_end, pipe id *)
  pr_brk : int;
  pr_mmap_cursor : int;
  pr_regions : region_state list;  (* aspace list order preserved *)
  pr_ptes : pte_state list;  (* sorted by vpn *)
}

type cost_state = {
  cs_cycles : int;
  cs_insns : int;
  cs_traps : int;
  cs_split_faults : int;
  cs_single_steps : int;
  cs_syscalls : int;
  cs_ctx_switches : int;
}

type t = {
  sn_page_size : int;
  sn_frame_count : int;
  sn_protection : string;
  sn_params_hash : int;
  sn_cost : cost_state;
  sn_frames : (int * string * int) list;
      (* non-zero frames, ascending: frame, and a string holding its page at
         an offset — its own copy after a checkpoint, the blob after a
         decode, so decoding copies no page *)
  sn_frames_skipped : int;
  sn_alloc : Kernel.Frame_alloc.state;
  sn_segments : (int * string) array;
      (* distinct image region sources (base, bytes), first-use order over
         the pid-sorted processes: every process spawned from one image
         refers to one entry *)
  sn_itlb : Hw.Tlb.state;
  sn_dtlb : Hw.Tlb.state;
  sn_pipes : (int * Kernel.Pipe.state) list;  (* registry id, state *)
  sn_procs : proc_state list;  (* sorted by pid *)
  sn_libs : (string * Kernel.Os.library) list;
  sn_runq : int list;
  sn_rng : string;  (* Marshal blob of the kernel PRNG *)
  sn_last_running : int option;
  sn_next_pid : int;
  sn_next_tick : int;
  sn_ticks : int;
  sn_lib_cursor : int;
  sn_events : Kernel.Event_log.event list;  (* oldest first *)
  sn_meta : (string * string) list;
  sn_trigger : trigger option;
}

let cycle t = t.sn_cost.cs_cycles
let page_size t = t.sn_page_size
let frame_count t = t.sn_frame_count
let frames_written t = List.length t.sn_frames
let frames_sparse_skipped t = t.sn_frames_skipped
let protection_name t = t.sn_protection
let meta t = t.sn_meta
let find_meta t k = List.assoc_opt k t.sn_meta
let trigger t = t.sn_trigger

(* ------------------------------------------------------------------ *)
(* Enum tags                                                           *)
(* ------------------------------------------------------------------ *)

let kind_to_int : Kernel.Pte.kind -> int = function
  | Code -> 0
  | Rodata -> 1
  | Data -> 2
  | Bss -> 3
  | Heap -> 4
  | Stack -> 5
  | Mixed -> 6
  | Lib -> 7
  | Mmap -> 8

let kind_of_int : int -> Kernel.Pte.kind = function
  | 0 -> Code
  | 1 -> Rodata
  | 2 -> Data
  | 3 -> Bss
  | 4 -> Heap
  | 5 -> Stack
  | 6 -> Mixed
  | 7 -> Lib
  | 8 -> Mmap
  | n -> raise (Codec.Corrupt (Fmt.str "bad pte kind %d" n))

let signal_to_int : Kernel.Proc.signal -> int = function
  | Sigsegv -> 0
  | Sigill -> 1
  | Sigkill -> 2
  | Sigpipe -> 3
  | Sigbus -> 4

let signal_of_int : int -> Kernel.Proc.signal = function
  | 0 -> Sigsegv
  | 1 -> Sigill
  | 2 -> Sigkill
  | 3 -> Sigpipe
  | 4 -> Sigbus
  | n -> raise (Codec.Corrupt (Fmt.str "bad signal %d" n))

let proc_state_fields (st : Kernel.Proc.state) =
  match st with
  | Runnable -> (0, None, None)
  | Blocked (Read_fd fd) -> (1, Some (0, fd), None)
  | Blocked (Write_fd fd) -> (1, Some (1, fd), None)
  | Blocked (Child pid) -> (1, Some (2, pid), None)
  | Blocked (Sleep until_) -> (1, Some (3, until_), None)
  | Zombie (Exited n) -> (2, None, Some (0, n))
  | Zombie (Killed s) -> (2, None, Some (1, signal_to_int s))

let proc_state_of_fields tag wait exit : Kernel.Proc.state =
  match (tag, wait, exit) with
  | 0, _, _ -> Runnable
  | 1, Some (0, fd), _ -> Blocked (Read_fd fd)
  | 1, Some (1, fd), _ -> Blocked (Write_fd fd)
  | 1, Some (2, pid), _ -> Blocked (Child pid)
  | 1, Some (3, until_), _ -> Blocked (Sleep until_)
  | 2, _, Some (0, n) -> Zombie (Exited n)
  | 2, _, Some (1, s) -> Zombie (Killed (signal_of_int s))
  | _ -> raise (Codec.Corrupt "bad process state")

let state_name = function
  | 0 -> "runnable"
  | 1 -> "blocked"
  | _ -> "zombie"

let proc_summaries t =
  List.map (fun p -> (p.pr_pid, p.pr_name, state_name p.pr_state)) t.sn_procs

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let require_no_caches what os =
  match Hw.Mmu.icache (Kernel.Os.mmu os) with
  | Some _ ->
    invalid_arg
      (Fmt.str
         "%s: the cache timing model is not serialized in format v%d; disable \
          ~caches to snapshot this machine"
         what version)
  | None -> ()

let us_since t0 =
  let dt = (Sys.time () -. t0) *. 1e6 in
  if dt < 0. then 0 else int_of_float dt

(* Pipes are shared objects (fork-inherited fds, connect pairs): identify
   them by {!Kernel.Pipe.uid} and number them in first-encounter order over
   the pid-sorted process list, so the same logical machine always
   produces the same registry. Image region sources are numbered the same
   way into the segment table; two sources are one entry when their base
   and bytes are equal ([String.equal] answers at once for the shared
   string of one image's segment). *)
let export_pipes_and_procs os =
  let pipe_ids : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let states = ref [] in
  let pipe_id p =
    let uid = Kernel.Pipe.uid p in
    match Hashtbl.find_opt pipe_ids uid with
    | Some id -> id
    | None ->
      let id = Hashtbl.length pipe_ids in
      Hashtbl.replace pipe_ids uid id;
      states := (id, Kernel.Pipe.export p) :: !states;
      id
  in
  let seg_ids : (int * int, (string * int) list) Hashtbl.t = Hashtbl.create 16 in
  let segments = ref [] and nsegments = ref 0 in
  let segment_id base bytes =
    let k = (base, String.length bytes) in
    let bucket = Option.value (Hashtbl.find_opt seg_ids k) ~default:[] in
    match List.find_opt (fun (b, _) -> String.equal b bytes) bucket with
    | Some (_, id) -> id
    | None ->
      let id = !nsegments in
      incr nsegments;
      Hashtbl.replace seg_ids k ((bytes, id) :: bucket);
      segments := (base, bytes) :: !segments;
      id
  in
  let export_proc (p : Kernel.Proc.t) =
    let tag, wait, exit = proc_state_fields p.state in
    let console_in = pipe_id p.console_in in
    let console_out = pipe_id p.console_out in
    let fds =
      Hashtbl.fold (fun n obj acc -> (n, obj) :: acc) p.fds []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (n, obj) ->
             match (obj : Kernel.Proc.fd_obj) with
             | Read_end pipe -> (n, false, pipe_id pipe)
             | Write_end pipe -> (n, true, pipe_id pipe))
    in
    let regions =
      List.map
        (fun (r : Kernel.Aspace.region) ->
          {
            rs_lo = r.lo;
            rs_hi = r.hi;
            rs_kind = kind_to_int r.kind;
            rs_writable = r.writable;
            rs_execable = r.execable;
            rs_source =
              (match r.source with
              | Zero -> None
              | Image_bytes { base; bytes } -> Some (segment_id base bytes));
          })
        p.aspace.regions
    in
    let ptes = ref [] in
    Kernel.Aspace.iter_ptes p.aspace (fun pte ->
        ptes :=
          {
            ps_vpn = pte.vpn;
            ps_kind = kind_to_int pte.kind;
            ps_frame = pte.frame;
            ps_present = pte.present;
            ps_writable = pte.writable;
            ps_user = pte.user;
            ps_nx = pte.nx;
            ps_cow = pte.cow;
            ps_orig_writable = pte.orig_writable;
            ps_split =
              Option.map
                (fun (s : Kernel.Pte.split) ->
                  (s.code_frame, s.data_frame, s.locked_to_data))
                pte.split;
          }
          :: !ptes);
    {
      pr_pid = p.pid;
      pr_name = p.name;
      pr_parent = p.parent;
      pr_gpr = Array.copy p.regs.gpr;
      pr_eip = p.regs.eip;
      pr_zf = p.regs.zf;
      pr_sf = p.regs.sf;
      pr_tf = p.regs.tf;
      pr_state = tag;
      pr_wait = wait;
      pr_exit = exit;
      pr_next_fd = p.next_fd;
      pr_pending_fault =
        (if p.pending_fault_addr = Kernel.Proc.no_fault_addr then None
         else Some p.pending_fault_addr);
      pr_sebek = p.sebek_active;
      pr_detections = p.detections;
      pr_recovery = p.recovery_handler;
      pr_trace = Array.copy p.trace;
      pr_trace_pos = p.trace_pos;
      pr_insns = p.p_insns;
      pr_protected = p.protected_;
      pr_console_in = console_in;
      pr_console_out = console_out;
      pr_fds = fds;
      pr_brk = p.aspace.brk;
      pr_mmap_cursor = p.aspace.mmap_cursor;
      pr_regions = regions;
      pr_ptes = List.sort (fun a b -> compare a.ps_vpn b.ps_vpn) !ptes;
    }
  in
  let procs = List.map export_proc (Kernel.Os.procs os) in
  (List.rev !states, Array.of_list (List.rev !segments), procs)

let checkpoint ?(meta = []) ?trigger os =
  require_no_caches "Snapshot.checkpoint" os;
  let t0 = Sys.time () in
  let phys = Kernel.Os.phys os in
  let cost = Kernel.Os.cost os in
  let mmu = Kernel.Os.mmu os in
  let n = Hw.Phys.frame_count phys in
  (* only frames without the known-zero bit can hold data; those that
     turn out all-zero anyway are skipped like the never-touched ones *)
  let frames = ref [] and written = ref 0 in
  Hw.Phys.iter_frames phys ~mask:Hw.Phys.zero_bit ~skip:Hw.Phys.zero_bit (fun frame ->
      if not (Hw.Phys.is_zero_frame phys ~frame) then begin
        frames := (frame, Hw.Phys.to_string phys ~frame, 0) :: !frames;
        incr written
      end);
  let skipped = n - !written in
  let pipes, segments, procs = export_pipes_and_procs os in
  (* scheduler bookkeeping comes straight from the scheduler layer *)
  let sched : Kernel.Sched.state = Kernel.Sched.state (Kernel.Os.machine os) in
  let snap =
    {
      sn_page_size = Kernel.Os.page_size os;
      sn_frame_count = n;
      sn_protection = (Kernel.Os.protection os).name;
      sn_params_hash = Hashtbl.hash cost.params;
      sn_cost =
        {
          cs_cycles = cost.cycles;
          cs_insns = cost.insns;
          cs_traps = cost.traps;
          cs_split_faults = cost.split_faults;
          cs_single_steps = cost.single_steps;
          cs_syscalls = cost.syscalls;
          cs_ctx_switches = cost.ctx_switches;
        };
      sn_frames = List.rev !frames;
      sn_frames_skipped = skipped;
      sn_alloc = Kernel.Frame_alloc.export (Kernel.Os.alloc os);
      sn_segments = segments;
      sn_itlb = Hw.Tlb.export (Hw.Mmu.itlb mmu);
      sn_dtlb = Hw.Tlb.export (Hw.Mmu.dtlb mmu);
      sn_pipes = pipes;
      sn_procs = procs;
      sn_libs = Kernel.Os.libraries os;
      sn_runq = sched.s_runq;
      sn_rng = Marshal.to_string sched.s_rng [];
      sn_last_running = sched.s_last_running;
      sn_next_pid = sched.s_next_pid;
      sn_next_tick = sched.s_next_tick;
      sn_ticks = sched.s_ticks;
      sn_lib_cursor = sched.s_lib_cursor;
      sn_events = Kernel.Event_log.to_list (Kernel.Os.log os);
      sn_meta = meta;
      sn_trigger = trigger;
    }
  in
  let obs = Kernel.Os.obs os in
  if Obs.enabled obs then begin
    Obs.count obs "snap.checkpoints";
    Obs.Metrics.incr ~by:skipped (Obs.counter obs "snap.frames_sparse_skipped");
    Obs.Metrics.incr ~by:!written (Obs.counter obs "snap.frames_written");
    Obs.Metrics.observe (Obs.histogram obs "snap.checkpoint_us") (us_since t0)
  end;
  snap

(* ------------------------------------------------------------------ *)
(* Restore                                                             *)
(* ------------------------------------------------------------------ *)

let restore os snap =
  require_no_caches "Snapshot.restore" os;
  let t0 = Sys.time () in
  let phys = Kernel.Os.phys os in
  let cost = Kernel.Os.cost os in
  let mmu = Kernel.Os.mmu os in
  if Kernel.Os.page_size os <> snap.sn_page_size then
    invalid_arg "Snapshot.restore: page size mismatch";
  if Hw.Phys.frame_count phys <> snap.sn_frame_count then
    invalid_arg "Snapshot.restore: frame count mismatch";
  if (Kernel.Os.protection os).name <> snap.sn_protection then
    invalid_arg
      (Fmt.str "Snapshot.restore: protection mismatch (machine %S, snapshot %S)"
         (Kernel.Os.protection os).name snap.sn_protection);
  if Hashtbl.hash cost.params <> snap.sn_params_hash then
    invalid_arg "Snapshot.restore: cost parameter mismatch";
  (* The PRNG blob is the one section [decode] cannot check, so it is read
     before anything below writes the machine: a bad blob is [Corrupt] and
     leaves the target as it was. *)
  let rng =
    match (Marshal.from_string snap.sn_rng 0 : Random.State.t) with
    | rng -> rng
    | exception (Failure _ | Invalid_argument _) -> Codec.corrupt "unreadable PRNG state"
  in
  (* physical memory: zero everything, then lay down the sparse frames.
     [fill 0] leaves a known-zero unwatched frame as it is, so only the
     other frames need it; a watched zero frame is still filled, which
     fires its write watch exactly as a fill of every frame would. *)
  Hw.Phys.iter_frames phys ~mask:0xFF ~skip:Hw.Phys.zero_bit (fun frame ->
      Hw.Phys.fill phys ~frame 0);
  List.iter
    (fun (frame, bytes, pos) ->
      Hw.Phys.blit_from_string phys ~frame ~off:0 ~pos ~len:snap.sn_page_size bytes)
    snap.sn_frames;
  (* the decoded-block cache is derived state: never serialized, dropped
     wholesale here and rebuilt lazily as execution resumes. (The refill
     above already bumped the generations of every watched frame; this
     also empties the table.) *)
  Option.iter Hw.Bbcache.clear (Kernel.Os.bbcache os);
  Kernel.Frame_alloc.import (Kernel.Os.alloc os) snap.sn_alloc;
  (* shared pipe objects *)
  let pipes = Hashtbl.create 16 in
  List.iter
    (fun (id, st) -> Hashtbl.replace pipes id (Kernel.Pipe.import st))
    snap.sn_pipes;
  let pipe id =
    match Hashtbl.find_opt pipes id with
    | Some p -> p
    | None -> raise (Codec.Corrupt (Fmt.str "dangling pipe id %d" id))
  in
  (* one source value, hence one bytes string, per segment *)
  let sources =
    Array.map (fun (base, bytes) -> Kernel.Aspace.Image_bytes { base; bytes }) snap.sn_segments
  in
  (* processes *)
  let build_proc (ps : proc_state) : Kernel.Proc.t =
    let regs = Hw.Cpu.create_regs () in
    Array.blit ps.pr_gpr 0 regs.gpr 0 (Array.length regs.gpr);
    regs.eip <- ps.pr_eip;
    regs.zf <- ps.pr_zf;
    regs.sf <- ps.pr_sf;
    regs.tf <- ps.pr_tf;
    let aspace = Kernel.Aspace.create ~page_size:snap.sn_page_size in
    aspace.brk <- ps.pr_brk;
    aspace.mmap_cursor <- ps.pr_mmap_cursor;
    aspace.regions <-
      List.map
        (fun rs ->
          {
            Kernel.Aspace.lo = rs.rs_lo;
            hi = rs.rs_hi;
            kind = kind_of_int rs.rs_kind;
            writable = rs.rs_writable;
            execable = rs.rs_execable;
            source =
              (match rs.rs_source with
              | None -> Kernel.Aspace.Zero
              | Some i -> sources.(i));
            (* derived perf-only state, deliberately not serialized:
               recomputed by [Machine.rebuild_shares] below *)
            share = None;
          })
        ps.pr_regions;
    List.iter
      (fun p ->
        Kernel.Aspace.set_pte aspace
          {
            Kernel.Pte.vpn = p.ps_vpn;
            kind = kind_of_int p.ps_kind;
            frame = p.ps_frame;
            present = p.ps_present;
            writable = p.ps_writable;
            user = p.ps_user;
            nx = p.ps_nx;
            cow = p.ps_cow;
            orig_writable = p.ps_orig_writable;
            split =
              Option.map
                (fun (code_frame, data_frame, locked_to_data) ->
                  { Kernel.Pte.code_frame; data_frame; locked_to_data })
                p.ps_split;
          })
      ps.pr_ptes;
    let fds = Hashtbl.create 8 in
    List.iter
      (fun (n, is_write, id) ->
        Hashtbl.replace fds n
          (if is_write then Kernel.Proc.Write_end (pipe id)
           else Kernel.Proc.Read_end (pipe id)))
      ps.pr_fds;
    let p =
      {
        Kernel.Proc.pid = ps.pr_pid;
        name = ps.pr_name;
        aspace;
        regs;
        fds;
        console_in = pipe ps.pr_console_in;
        console_out = pipe ps.pr_console_out;
        state = proc_state_of_fields ps.pr_state ps.pr_wait ps.pr_exit;
        (* scheduler-derived, not serialized: [Sched.restore] re-marks the
           queued pids *)
        in_runq = false;
        p_insns = ps.pr_insns;
        next_fd = ps.pr_next_fd;
        pending_fault_addr =
          Option.value ps.pr_pending_fault ~default:Kernel.Proc.no_fault_addr;
        sebek_active = ps.pr_sebek;
        parent = ps.pr_parent;
        detections = ps.pr_detections;
        recovery_handler = ps.pr_recovery;
        trace = Array.copy ps.pr_trace;
        trace_pos = ps.pr_trace_pos;
        protected_ = ps.pr_protected;
        on_retire = ignore;
      }
    in
    p.on_retire <- (fun eip -> Kernel.Proc.record_trace p eip);
    p
  in
  Kernel.Os.replace_procs os (List.map build_proc snap.sn_procs);
  Kernel.Machine.rebuild_shares (Kernel.Os.machine os);
  Kernel.Os.restore_libraries os snap.sn_libs;
  Kernel.Sched.restore (Kernel.Os.machine os)
    {
      s_runq = snap.sn_runq;
      s_rng = rng;
      s_last_running = snap.sn_last_running;
      s_next_pid = snap.sn_next_pid;
      s_next_tick = snap.sn_next_tick;
      s_ticks = snap.sn_ticks;
      s_lib_cursor = snap.sn_lib_cursor;
    };
  Kernel.Event_log.set_events (Kernel.Os.log os) snap.sn_events;
  (* pagetables must match last_running before the TLB state goes in, so a
     TLB miss after resume walks the right address space *)
  (match snap.sn_last_running with
  | Some pid when Kernel.Os.proc os pid <> None ->
    Kernel.Os.load_pagetables os (Option.get (Kernel.Os.proc os pid))
  | _ -> Hw.Mmu.reload_cr3 mmu (fun _ -> Hw.Mmu.no_pte));
  (* TLB contents last: reload_cr3 above flushed and bumped stats; import
     overwrites both with the snapshot's exact state *)
  Hw.Tlb.import (Hw.Mmu.itlb mmu) snap.sn_itlb;
  Hw.Tlb.import (Hw.Mmu.dtlb mmu) snap.sn_dtlb;
  cost.cycles <- snap.sn_cost.cs_cycles;
  cost.insns <- snap.sn_cost.cs_insns;
  cost.traps <- snap.sn_cost.cs_traps;
  cost.split_faults <- snap.sn_cost.cs_split_faults;
  cost.single_steps <- snap.sn_cost.cs_single_steps;
  cost.syscalls <- snap.sn_cost.cs_syscalls;
  cost.ctx_switches <- snap.sn_cost.cs_ctx_switches;
  let obs = Kernel.Os.obs os in
  if Obs.enabled obs then begin
    Obs.count obs "snap.restores";
    Obs.Metrics.observe (Obs.histogram obs "snap.restore_us") (us_since t0)
  end

(* ------------------------------------------------------------------ *)
(* Binary encoding                                                     *)
(* ------------------------------------------------------------------ *)

let event_w b (e : Kernel.Event_log.event) =
  let open Codec.W in
  match e with
  | Exec_shell { pid; path } ->
    u8 b 0;
    int b pid;
    str b path
  | Injection_detected { pid; eip; mode } ->
    u8 b 1;
    int b pid;
    int b eip;
    str b mode
  | Shellcode_dump { pid; eip; bytes } ->
    u8 b 2;
    int b pid;
    int b eip;
    str b bytes
  | Forensic_injected { pid; new_eip } ->
    u8 b 3;
    int b pid;
    int b new_eip
  | Recovery_invoked { pid; handler; faulting_eip } ->
    u8 b 4;
    int b pid;
    int b handler;
    int b faulting_eip
  | Execution_trail { pid; eips } ->
    u8 b 5;
    int b pid;
    list int b eips
  | Signal_delivered { pid; signal } ->
    u8 b 6;
    int b pid;
    str b signal
  | Syscall_traced { pid; name; info } ->
    u8 b 7;
    int b pid;
    str b name;
    str b info
  | Process_exited { pid; status } ->
    u8 b 8;
    int b pid;
    str b status
  | Library_rejected { name } ->
    u8 b 9;
    str b name
  | Note s ->
    u8 b 10;
    str b s
  | Fault_detected { pid; kind; action } ->
    u8 b 11;
    int b pid;
    str b kind;
    str b action

let event_r r : Kernel.Event_log.event =
  let open Codec.R in
  match u8 r with
  | 0 ->
    let pid = int r in
    let path = str r in
    Exec_shell { pid; path }
  | 1 ->
    let pid = int r in
    let eip = int r in
    let mode = str r in
    Injection_detected { pid; eip; mode }
  | 2 ->
    let pid = int r in
    let eip = int r in
    let bytes = str r in
    Shellcode_dump { pid; eip; bytes }
  | 3 ->
    let pid = int r in
    let new_eip = int r in
    Forensic_injected { pid; new_eip }
  | 4 ->
    let pid = int r in
    let handler = int r in
    let faulting_eip = int r in
    Recovery_invoked { pid; handler; faulting_eip }
  | 5 ->
    let pid = int r in
    let eips = list int r in
    Execution_trail { pid; eips }
  | 6 ->
    let pid = int r in
    let signal = str r in
    Signal_delivered { pid; signal }
  | 7 ->
    let pid = int r in
    let name = str r in
    let info = str r in
    Syscall_traced { pid; name; info }
  | 8 ->
    let pid = int r in
    let status = str r in
    Process_exited { pid; status }
  | 9 -> Library_rejected { name = str r }
  | 10 -> Note (str r)
  | 11 ->
    let pid = int r in
    let kind = str r in
    let action = str r in
    Fault_detected { pid; kind; action }
  | n -> raise (Codec.Corrupt (Fmt.str "bad event tag %d" n))

let pair fa fb b (x, y) =
  fa b x;
  fb b y

let pair_r fa fb r =
  let a = fa r in
  let b = fb r in
  (a, b)

let triple fa fb fc b (x, y, z) =
  fa b x;
  fb b y;
  fc b z

let triple_r fa fb fc r =
  let a = fa r in
  let b = fb r in
  let c = fc r in
  (a, b, c)

let tlb_w b (s : Hw.Tlb.state) =
  let open Codec.W in
  list
    (fun b (e : Hw.Tlb.entry) ->
      int b e.vpn;
      int b e.frame;
      bool b e.user;
      bool b e.writable;
      bool b e.nx)
    b s.s_entries;
  list int b s.s_fifo;
  int b s.s_hits;
  int b s.s_misses;
  int b s.s_flushes;
  int b s.s_invalidations;
  int b s.s_evictions

(* A frame number read from outside: the kernel and the TLB index physical
   memory with it, so one out of range would surface later as a stray
   [Invalid_argument] from [Phys]. *)
let frame_r ~frame_count what r =
  let frame = Codec.R.int r in
  if frame < 0 || frame >= frame_count then
    Codec.corrupt "%s frame %d out of range (%d frames)" what frame frame_count;
  frame

let tlb_r ~frame_count r : Hw.Tlb.state =
  let open Codec.R in
  let s_entries =
    list
      (fun r ->
        let vpn = int r in
        if vpn < 0 then Codec.corrupt "TLB entry vpn %d negative" vpn;
        let frame = frame_r ~frame_count "TLB entry" r in
        let user = bool r in
        let writable = bool r in
        let nx = bool r in
        { Hw.Tlb.vpn; frame; user; writable; nx })
      r
  in
  let s_fifo = list int r in
  let s_hits = int r in
  let s_misses = int r in
  let s_flushes = int r in
  let s_invalidations = int r in
  let s_evictions = int r in
  { s_entries; s_fifo; s_hits; s_misses; s_flushes; s_invalidations; s_evictions }

let proc_w b (p : proc_state) =
  let open Codec.W in
  int b p.pr_pid;
  str b p.pr_name;
  opt int b p.pr_parent;
  int_array b p.pr_gpr;
  int b p.pr_eip;
  bool b p.pr_zf;
  bool b p.pr_sf;
  bool b p.pr_tf;
  u8 b p.pr_state;
  opt (pair int int) b p.pr_wait;
  opt (pair int int) b p.pr_exit;
  int b p.pr_next_fd;
  opt int b p.pr_pending_fault;
  bool b p.pr_sebek;
  int b p.pr_detections;
  opt int b p.pr_recovery;
  int_array b p.pr_trace;
  int b p.pr_trace_pos;
  int b p.pr_insns;
  bool b p.pr_protected;
  int b p.pr_console_in;
  int b p.pr_console_out;
  list (triple int bool int) b p.pr_fds;
  int b p.pr_brk;
  int b p.pr_mmap_cursor;
  list
    (fun b rs ->
      int b rs.rs_lo;
      int b rs.rs_hi;
      u8 b rs.rs_kind;
      bool b rs.rs_writable;
      bool b rs.rs_execable;
      opt int b rs.rs_source)
    b p.pr_regions;
  list
    (fun b ps ->
      int b ps.ps_vpn;
      u8 b ps.ps_kind;
      int b ps.ps_frame;
      bool b ps.ps_present;
      bool b ps.ps_writable;
      bool b ps.ps_user;
      bool b ps.ps_nx;
      bool b ps.ps_cow;
      bool b ps.ps_orig_writable;
      opt (triple int int bool) b ps.ps_split)
    b p.pr_ptes

let proc_r ~segments ~frame_count r : proc_state =
  let open Codec.R in
  let pr_pid = int r in
  let pr_name = str r in
  let pr_parent = opt int r in
  let pr_gpr = int_array r in
  let pr_eip = int r in
  let pr_zf = bool r in
  let pr_sf = bool r in
  let pr_tf = bool r in
  let pr_state = u8 r in
  let pr_wait = opt (pair_r int int) r in
  let pr_exit = opt (pair_r int int) r in
  let pr_next_fd = int r in
  let pr_pending_fault = opt int r in
  (match pr_pending_fault with
  | Some a when a < 0 || a > 0xFFFFFFFF ->
    Codec.corrupt "pid %d: pending fault address %d out of range" pr_pid a
  | _ -> ());
  let pr_sebek = bool r in
  let pr_detections = int r in
  let pr_recovery = opt int r in
  let pr_trace = int_array r in
  let pr_trace_pos = int r in
  (* the ring index wraps with a mask: any other length, or a position
     outside the ring, would fault on the first retired instruction *)
  if Array.length pr_trace <> Kernel.Proc.trace_ring_size then
    Codec.corrupt "pid %d: trace ring of %d entries (expected %d)" pr_pid
      (Array.length pr_trace) Kernel.Proc.trace_ring_size;
  if pr_trace_pos < 0 || pr_trace_pos >= Kernel.Proc.trace_ring_size then
    Codec.corrupt "pid %d: trace position %d out of range" pr_pid pr_trace_pos;
  let pr_insns = int r in
  let pr_protected = bool r in
  let pr_console_in = int r in
  let pr_console_out = int r in
  let pr_fds = list (triple_r int bool int) r in
  let pr_brk = int r in
  let pr_mmap_cursor = int r in
  let pr_regions =
    list
      (fun r ->
        let rs_lo = int r in
        let rs_hi = int r in
        let rs_kind = u8 r in
        let rs_writable = bool r in
        let rs_execable = bool r in
        let rs_source = opt int r in
        (match rs_source with
        | Some i when i < 0 || i >= segments ->
          Codec.corrupt "pid %d: segment index %d out of range (%d segments)" pr_pid i
            segments
        | _ -> ());
        { rs_lo; rs_hi; rs_kind; rs_writable; rs_execable; rs_source })
      r
  in
  let pr_ptes =
    list
      (fun r ->
        let ps_vpn = int r in
        let ps_kind = u8 r in
        let ps_frame = frame_r ~frame_count "PTE" r in
        let ps_present = bool r in
        let ps_writable = bool r in
        let ps_user = bool r in
        let ps_nx = bool r in
        let ps_cow = bool r in
        let ps_orig_writable = bool r in
        let ps_split =
          opt
            (triple_r (frame_r ~frame_count "split code") (frame_r ~frame_count "split data") bool)
            r
        in
        {
          ps_vpn;
          ps_kind;
          ps_frame;
          ps_present;
          ps_writable;
          ps_user;
          ps_nx;
          ps_cow;
          ps_orig_writable;
          ps_split;
        })
      r
  in
  {
    pr_pid;
    pr_name;
    pr_parent;
    pr_gpr;
    pr_eip;
    pr_zf;
    pr_sf;
    pr_tf;
    pr_state;
    pr_wait;
    pr_exit;
    pr_next_fd;
    pr_pending_fault;
    pr_sebek;
    pr_detections;
    pr_recovery;
    pr_trace;
    pr_trace_pos;
    pr_insns;
    pr_protected;
    pr_console_in;
    pr_console_out;
    pr_fds;
    pr_brk;
    pr_mmap_cursor;
    pr_regions;
    pr_ptes;
  }

(* Non-zero frames: ascending, in range, one page each. *)
let frames_r ~frame_count ~page_size r =
  let prev = ref (-1) in
  Codec.R.list
    (fun r ->
      let frame = Codec.R.int r in
      if frame <= !prev || frame >= frame_count then
        Codec.corrupt "frame %d out of order or range (after %d, %d frames)" frame !prev
          frame_count;
      prev := frame;
      let bytes, pos, len = Codec.R.view r in
      if len <> page_size then
        Codec.corrupt "frame %d holds %d bytes (page size %d)" frame len page_size;
      (frame, bytes, pos))
    r

(* The sparse allocator section: [in_use], [peak_in_use], then exactly
   [in_use] (frame, refcount) entries, strictly ascending frames in
   [1, frame_count) and refcounts >= 1. Anything else would restore an
   allocator whose free set and counters disagree. *)
let alloc_r ~frame_count r : Kernel.Frame_alloc.state =
  let s_in_use = Codec.R.int r in
  let s_peak_in_use = Codec.R.int r in
  if s_in_use < 0 || s_peak_in_use < s_in_use then
    Codec.corrupt "allocator: in_use %d, peak %d" s_in_use s_peak_in_use;
  let prev = ref 0 in
  let s_used =
    Codec.R.list
      (fun r ->
        let frame = Codec.R.int r in
        let rc = Codec.R.int r in
        if frame <= !prev || frame >= frame_count then
          Codec.corrupt "allocator: frame %d out of order or range (after %d, %d frames)"
            frame !prev frame_count;
        if rc <= 0 then Codec.corrupt "allocator: frame %d has refcount %d" frame rc;
        prev := frame;
        (frame, rc))
      r
  in
  let n = List.length s_used in
  if n <> s_in_use then
    Codec.corrupt "allocator: %d frames listed, in_use %d" n s_in_use;
  { s_used; s_in_use; s_peak_in_use }

let write b t =
  let open Codec.W in
  raw b magic;
  int b version;
  int b t.sn_page_size;
  int b t.sn_frame_count;
  str b t.sn_protection;
  int b t.sn_params_hash;
  int b t.sn_cost.cs_cycles;
  int b t.sn_cost.cs_insns;
  int b t.sn_cost.cs_traps;
  int b t.sn_cost.cs_split_faults;
  int b t.sn_cost.cs_single_steps;
  int b t.sn_cost.cs_syscalls;
  int b t.sn_cost.cs_ctx_switches;
  list
    (fun b (frame, bytes, pos) ->
      int b frame;
      str_sub b bytes ~pos ~len:t.sn_page_size)
    b t.sn_frames;
  int b t.sn_frames_skipped;
  int b t.sn_alloc.s_in_use;
  int b t.sn_alloc.s_peak_in_use;
  list (pair int int) b t.sn_alloc.s_used;
  tlb_w b t.sn_itlb;
  tlb_w b t.sn_dtlb;
  list (pair int (fun b (s : Kernel.Pipe.state) ->
            str b s.s_name;
            int b s.s_capacity;
            str b s.s_pending;
            int b s.s_readers;
            int b s.s_writers;
            int b s.s_bytes_written))
    b t.sn_pipes;
  list (pair int str) b (Array.to_list t.sn_segments);
  list proc_w b t.sn_procs;
  list
    (pair str (fun b (l : Kernel.Os.library) ->
         int b l.lib_base;
         str b l.code;
         int b l.lib_signature))
    b t.sn_libs;
  list int b t.sn_runq;
  str b t.sn_rng;
  opt int b t.sn_last_running;
  int b t.sn_next_pid;
  int b t.sn_next_tick;
  int b t.sn_ticks;
  int b t.sn_lib_cursor;
  list event_w b t.sn_events;
  list (pair str str) b t.sn_meta;
  opt
    (fun b (tr : trigger) ->
      int b tr.t_pid;
      int b tr.t_eip;
      str b tr.t_mode)
    b t.sn_trigger

(* One pass over a sizer, then one over a buffer of exactly that size:
   the blob is built without regrowing and handed out without a copy. *)
let encode t =
  let sizing = Codec.W.sizer () in
  write sizing t;
  let b = Codec.W.create ~size:(Codec.W.length sizing) () in
  write b t;
  Codec.W.contents b

let decode s =
  let open Codec.R in
  let r = of_string s in
  expect r magic;
  let v = int r in
  if v <> version then
    raise (Codec.Corrupt (Fmt.str "unsupported snapshot version %d (expected %d)" v version));
  let sn_page_size = int r in
  let sn_frame_count = int r in
  let sn_protection = str r in
  let sn_params_hash = int r in
  let cs_cycles = int r in
  let cs_insns = int r in
  let cs_traps = int r in
  let cs_split_faults = int r in
  let cs_single_steps = int r in
  let cs_syscalls = int r in
  let cs_ctx_switches = int r in
  let sn_frames = frames_r ~frame_count:sn_frame_count ~page_size:sn_page_size r in
  let sn_frames_skipped = int r in
  let sn_alloc = alloc_r ~frame_count:sn_frame_count r in
  let sn_itlb = tlb_r ~frame_count:sn_frame_count r in
  let sn_dtlb = tlb_r ~frame_count:sn_frame_count r in
  let sn_pipes =
    list
      (pair_r int (fun r ->
           let s_name = str r in
           let s_capacity = int r in
           let s_pending = str r in
           let s_readers = int r in
           let s_writers = int r in
           let s_bytes_written = int r in
           {
             Kernel.Pipe.s_name;
             s_capacity;
             s_pending;
             s_readers;
             s_writers;
             s_bytes_written;
           }))
      r
  in
  let sn_segments = Array.of_list (list (pair_r int str) r) in
  let sn_procs =
    list (proc_r ~segments:(Array.length sn_segments) ~frame_count:sn_frame_count) r
  in
  let sn_libs =
    list
      (pair_r str (fun r ->
           let lib_base = int r in
           let code = str r in
           let lib_signature = int r in
           { Kernel.Os.lib_base; code; lib_signature }))
      r
  in
  let sn_runq = list int r in
  let sn_rng = str r in
  let sn_last_running = opt int r in
  let sn_next_pid = int r in
  let sn_next_tick = int r in
  let sn_ticks = int r in
  let sn_lib_cursor = int r in
  let sn_events = list event_r r in
  let sn_meta = list (pair_r str str) r in
  let sn_trigger =
    opt
      (fun r ->
        let t_pid = int r in
        let t_eip = int r in
        let t_mode = str r in
        { t_pid; t_eip; t_mode })
      r
  in
  if not (at_end r) then raise (Codec.Corrupt "trailing bytes after snapshot");
  {
    sn_page_size;
    sn_frame_count;
    sn_protection;
    sn_params_hash;
    sn_cost =
      {
        cs_cycles;
        cs_insns;
        cs_traps;
        cs_split_faults;
        cs_single_steps;
        cs_syscalls;
        cs_ctx_switches;
      };
    sn_frames;
    sn_frames_skipped;
    sn_alloc;
    sn_segments;
    sn_itlb;
    sn_dtlb;
    sn_pipes;
    sn_procs;
    sn_libs;
    sn_runq;
    sn_rng;
    sn_last_running;
    sn_next_pid;
    sn_next_tick;
    sn_ticks;
    sn_lib_cursor;
    sn_events;
    sn_meta;
    sn_trigger;
  }

(* ------------------------------------------------------------------ *)
(* Manifest + files                                                    *)
(* ------------------------------------------------------------------ *)

let manifest t : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      ("format", Str (Fmt.str "snap/%d" version));
      ("cycle", Int t.sn_cost.cs_cycles);
      ("insns", Int t.sn_cost.cs_insns);
      ("page_size", Int t.sn_page_size);
      ("frame_count", Int t.sn_frame_count);
      ("frames_written", Int (frames_written t));
      ("frames_sparse_skipped", Int t.sn_frames_skipped);
      ("protection", Str t.sn_protection);
      ("events", Int (List.length t.sn_events));
      ( "procs",
        List
          (List.map
             (fun (pid, name, state) ->
               Obj [ ("pid", Int pid); ("name", Str name); ("state", Str state) ])
             (proc_summaries t)) );
      ("meta", Obj (List.map (fun (k, v) -> (k, Str v)) t.sn_meta));
      ( "trigger",
        match t.sn_trigger with
        | None -> Null
        | Some tr ->
          Obj
            [
              ("pid", Int tr.t_pid);
              ("eip", Str (Fmt.str "0x%08x" tr.t_eip));
              ("mode", Str tr.t_mode);
            ] );
    ]

let save ?(obs = Obs.null) ~file t =
  let bin = encode t in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc bin);
  let man =
    match manifest t with
    | Obj fields -> Obs.Json.Obj (fields @ [ ("bytes", Obs.Json.Int (String.length bin)) ])
    | j -> j
  in
  Out_channel.with_open_text (file ^ ".manifest.json") (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string man);
      Out_channel.output_char oc '\n');
  if Obs.enabled obs then
    Obs.Metrics.incr ~by:(String.length bin) (Obs.counter obs "snap.bytes_written");
  String.length bin

let load file = decode (In_channel.with_open_bin file In_channel.input_all)
