(** Guest processes: registers, address space, file descriptors, scheduler
    state, and the per-process bookkeeping the split-memory patch keeps in
    the OS process table (the pending faulting address passed from the
    page-fault handler to the debug-interrupt handler, §5.2). *)

type signal = Sigsegv | Sigill | Sigkill | Sigpipe | Sigbus

val signal_name : signal -> string
val signal_number : signal -> int

type exit_status = Exited of int | Killed of signal

val status_string : exit_status -> string

type wait_cond =
  | Read_fd of int
  | Write_fd of int
  | Child of int
  | Sleep of int
      (** absolute wake-up deadline on the machine's cycle counter *)
type state = Runnable | Blocked of wait_cond | Zombie of exit_status
type fd_obj = Read_end of Pipe.t | Write_end of Pipe.t

type t = {
  pid : int;
  name : string;
  aspace : Aspace.t;
  regs : Hw.Cpu.regs;
  fds : (int, fd_obj) Hashtbl.t;
  console_in : Pipe.t;  (** initially fd 0 — where exploit drivers inject *)
  console_out : Pipe.t;  (** initially fd 1 *)
  mutable state : state;
  mutable in_runq : bool;
      (** queued in the machine's run queue — lets [enqueue] never
          double-queue and [dequeue_runnable] skip stale-pid churn *)
  mutable p_insns : int;
      (** instructions retired by this process (maintained by the
          scheduler; not serialized — resets to 0 on snapshot restore) *)
  mutable next_fd : int;
  mutable pending_fault_addr : int;
      (** set by Algorithm 1's code branch, consumed by Algorithm 2;
          {!no_fault_addr} when none is pending (an int, so arming the
          single step allocates nothing) *)
  mutable sebek_active : bool;  (** post-detection syscall tracing enabled *)
  mutable parent : int option;
  mutable detections : int;  (** injection detections against this process *)
  mutable recovery_handler : int option;
      (** attack-recovery callback registered via the sigrecover syscall
          (the paper's proposed recovery response mode, §4.5) *)
  trace : int array;
      (** ring buffer of recently executed EIPs, {!trace_ring_size} long *)
  mutable trace_pos : int;  (** next slot, in [\[0, trace_ring_size)] *)
  mutable protected_ : bool;
      (** per-process opt-out (paper §3.3.1: a process that needs a plain
          von Neumann view — e.g. self-modifying code — simply gets one
          pagetable view and no splitting) *)
  mutable on_retire : int -> unit;
      (** this process's retire hook for the block dispatcher — feeds
          {!record_trace}. Built once at creation so the scheduler can arm
          it each quantum with a field write, not a closure allocation. *)
}

val no_fault_addr : int
(** [-1]: no Algorithm 1 fetch fault awaits its single step. *)

val trace_ring_size : int
(** Length of every process's [trace] ring; a power of two. *)

val create : pid:int -> name:string -> aspace:Aspace.t -> t
val fd : t -> int -> fd_obj option
val install_fd : t -> fd_obj -> int
val replace_fd : t -> int -> fd_obj -> unit
val close_fd : t -> int -> bool
val close_all_fds : t -> unit
val is_runnable : t -> bool
val is_zombie : t -> bool
val pp_state : Format.formatter -> state -> unit

val record_trace : t -> int -> unit
(** Record one executed instruction address (called by the scheduler). *)

val trace_trail : t -> int list
(** The last executed instruction addresses, oldest first — forensics mode
    dumps this as the control-flow trail into the attack. *)
