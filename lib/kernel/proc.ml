type signal = Sigsegv | Sigill | Sigkill | Sigpipe | Sigbus

let signal_name = function
  | Sigsegv -> "SIGSEGV"
  | Sigill -> "SIGILL"
  | Sigkill -> "SIGKILL"
  | Sigpipe -> "SIGPIPE"
  | Sigbus -> "SIGBUS"

let signal_number = function
  | Sigill -> 4
  | Sigbus -> 7
  | Sigkill -> 9
  | Sigsegv -> 11
  | Sigpipe -> 13

type exit_status = Exited of int | Killed of signal

let status_string = function
  | Exited n -> Fmt.str "exit(%d)" n
  | Killed s -> Fmt.str "killed by %s" (signal_name s)

type wait_cond =
  | Read_fd of int
  | Write_fd of int
  | Child of int
  | Sleep of int  (* absolute wake-up deadline on the cycle counter *)

type state = Runnable | Blocked of wait_cond | Zombie of exit_status

type fd_obj = Read_end of Pipe.t | Write_end of Pipe.t

type t = {
  pid : int;
  name : string;
  aspace : Aspace.t;
  regs : Hw.Cpu.regs;
  fds : (int, fd_obj) Hashtbl.t;
  console_in : Pipe.t;
  console_out : Pipe.t;
  mutable state : state;
  mutable in_runq : bool;
  mutable p_insns : int;
  mutable next_fd : int;
  mutable pending_fault_addr : int;  (* [no_fault_addr] = none *)
  mutable sebek_active : bool;
  mutable parent : int option;
  mutable detections : int;
  mutable recovery_handler : int option;
  trace : int array;
  mutable trace_pos : int;
  mutable protected_ : bool;
  mutable on_retire : int -> unit;
      (* this process's retire hook for the block dispatcher: feeds the
         forensic trace ring. Built once here so arming it each quantum is
         a field write, not a closure allocation. *)
}

let no_fault_addr = -1

(* A power of two, so the ring index wraps with a mask. Every [trace] has
   exactly this length; snapshot decoding rejects any other. *)
let trace_ring_size = 32

let record_trace t eip =
  t.trace.(t.trace_pos) <- eip;
  t.trace_pos <- (t.trace_pos + 1) land (trace_ring_size - 1)

let create ~pid ~name ~aspace =
  let console_in = Pipe.create ~name:(name ^ ".stdin") () in
  let console_out = Pipe.create ~capacity:(1 lsl 20) ~name:(name ^ ".stdout") () in
  let fds = Hashtbl.create 8 in
  Hashtbl.replace fds 0 (Read_end console_in);
  Hashtbl.replace fds 1 (Write_end console_out);
  let t =
    {
      pid;
      name;
      aspace;
      regs = Hw.Cpu.create_regs ();
      fds;
      console_in;
      console_out;
      state = Runnable;
      in_runq = false;
      p_insns = 0;
      next_fd = 3;
      pending_fault_addr = no_fault_addr;
      sebek_active = false;
      parent = None;
      detections = 0;
      recovery_handler = None;
      trace = Array.make trace_ring_size (-1);
      trace_pos = 0;
      protected_ = true;
      on_retire = ignore;
    }
  in
  t.on_retire <- (fun eip -> record_trace t eip);
  t

let fd t n = Hashtbl.find_opt t.fds n

let install_fd t obj =
  let n = t.next_fd in
  t.next_fd <- n + 1;
  Hashtbl.replace t.fds n obj;
  n

let replace_fd t n obj = Hashtbl.replace t.fds n obj

let close_fd t n =
  match Hashtbl.find_opt t.fds n with
  | None -> false
  | Some (Read_end p) ->
    Pipe.close_reader p;
    Hashtbl.remove t.fds n;
    true
  | Some (Write_end p) ->
    Pipe.close_writer p;
    Hashtbl.remove t.fds n;
    true

let close_all_fds t =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.fds [] in
  List.iter (fun k -> ignore (close_fd t k)) keys

let is_runnable t = t.state = Runnable
let is_zombie t = match t.state with Zombie _ -> true | _ -> false

let pp_state ppf = function
  | Runnable -> Fmt.string ppf "runnable"
  | Blocked (Read_fd n) -> Fmt.pf ppf "blocked(read fd %d)" n
  | Blocked (Write_fd n) -> Fmt.pf ppf "blocked(write fd %d)" n
  | Blocked (Child pid) -> Fmt.pf ppf "blocked(wait pid %d)" pid
  | Blocked (Sleep until_) -> Fmt.pf ppf "blocked(sleep until %d)" until_
  | Zombie s -> Fmt.pf ppf "zombie(%s)" (status_string s)

(* Oldest-first list of the last executed instruction addresses. *)
let trace_trail t =
  let n = Array.length t.trace in
  let rec collect i acc =
    if i = 0 then acc
    else
      let idx = (t.trace_pos - i + (2 * n)) mod n in
      let v = t.trace.(idx) in
      collect (i - 1) (if v >= 0 then v :: acc else acc)
  in
  List.rev (collect n [])
