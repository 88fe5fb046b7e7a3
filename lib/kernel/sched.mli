(** The scheduler layer: round-robin run loop, quantum accounting, timer
    ticks and fuel handling, extracted from the old kernel monolith. Each
    loop iteration runs one {!Hw.Cpu.run_block} (or one {!Hw.Cpu.step}
    when block dispatch is off) and hands the exit registers to
    {!Trap.deliver} when they hold a trap or a #DB. *)

type stop_reason = All_exited | All_blocked | Fuel_exhausted

val ready : Machine.t -> Proc.t -> Proc.wait_cond -> bool
(** Does the wait condition hold right now? The one shared recheck both
    wake implementations use. *)

val wake : Machine.t -> unit
(** Event-driven wake: drain [Machine.pending_wakeups], recheck the
    candidates in ascending pid order, requeue the ready ones and
    re-register the rest. O(woken). *)

val wake_scan : Machine.t -> unit
(** The seed's reference implementation: scan every blocked process and
    requeue the ones whose wait condition now holds. O(processes). Kept
    for the wake-equivalence harness; also clears the pending list. *)

val dequeue_runnable : Machine.t -> Proc.t
(** Pop the next runnable process, clearing its [in_runq] bit (and that of
    any stale queued pid skipped along the way). Raises [Not_found] when
    none is queued — no option is allocated per pick. *)

val all_zombie : Machine.t -> bool

val switch_to : Machine.t -> Proc.t -> unit
(** Context switch if [p] was not already running: charge it, load the
    process pagetables (flushing the TLBs). *)

val timer_tick : Machine.t -> unit

val run_quantum : ?table:Syscalls.table -> Machine.t -> Proc.t -> int ref -> unit
(** Run [p] for up to one quantum, decrementing [fuel] per attempted
    instruction; requeues the process if it is still runnable. *)

val run :
  ?fuel:int -> ?wake_scan:bool -> ?table:Syscalls.table -> Machine.t -> stop_reason
(** Schedule until every process exited, everything blocked, or fuel ran
    out. [table] (default {!Syscalls.default}) is the syscall table traps
    dispatch through. [wake_scan] (default [false]) selects the seed's
    scan-everything wake instead of the indexed one — the two are
    observably identical (test/test_wake_equiv.ml); the scan is O(procs)
    per boundary. Ends with one minor collection ([Gc.minor]), so the
    collector's work for the run stays inside it. *)

(** {2 Snapshot support} *)

type state = {
  s_runq : int list;  (** run queue, front first *)
  s_rng : Random.State.t;  (** deep copy of the kernel PRNG *)
  s_last_running : int option;
  s_next_pid : int;
  s_next_tick : int;
  s_ticks : int;
  s_lib_cursor : int;
}

val state : Machine.t -> state
(** Deep copy of scheduler/loader bookkeeping. *)

val restore : Machine.t -> state -> unit
