(* Per-layer host timing, measured from outside the program. The traced run
   wraps three existing public hooks — the protection record's fault,
   debug-trap and page-mapped callbacks, a syscall table that re-registers
   every default entry behind a timer, and the scheduler-boundary hook —
   and the layer self times are what is left after nested spans are taken
   out. [hw_loops] times the hardware layers' entry points directly on a
   warmed machine. *)

type span = {
  mutable calls : int;
  mutable self_ns : int;  (** time inside the span minus the spans nested in it *)
  mutable samples : int list;  (** per-call ns, kept for per-syscall spans *)
}

let span () = { calls = 0; self_ns = 0; samples = [] }

type t = {
  alg1 : span;  (** [on_protection_fault]: Algorithm 1's split page fault *)
  alg2 : span;  (** [on_debug_trap]: Algorithm 2's single-step ITLB load *)
  page_mapped : span;  (** [on_page_mapped]: splitting freshly mapped pages *)
  syscalls : span;  (** every syscall handler *)
  by_syscall : (string, span) Hashtbl.t;
  mutable child_ns : int;  (** time of spans nested in the open one *)
  mutable iters : int;  (** scheduler-loop boundaries seen *)
  mutable last_boundary : int;  (** clock at the previous boundary, 0 = none *)
  mutable iter_ns : int list;  (** host time between consecutive boundaries *)
}

let create () =
  {
    alg1 = span ();
    alg2 = span ();
    page_mapped = span ();
    syscalls = span ();
    by_syscall = Hashtbl.create 16;
    child_ns = 0;
    iters = 0;
    last_boundary = 0;
    iter_ns = [];
  }

(* Run [f] inside [s]; [also] receives the same duration (the per-name
   syscall span). Nested spans subtract from their parent's self time, so
   the self times of all spans sum to the time of the outermost ones. *)
let within t ?also s f =
  let saved = t.child_ns in
  t.child_ns <- 0;
  let t0 = Stats.now_ns () in
  let finish () =
    let dt = Stats.now_ns () - t0 in
    s.calls <- s.calls + 1;
    s.self_ns <- s.self_ns + dt - t.child_ns;
    t.child_ns <- saved + dt;
    Option.iter
      (fun a ->
        a.calls <- a.calls + 1;
        a.samples <- dt :: a.samples)
      also
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

(* A copy of the defense's hooks that times its three callbacks. *)
let protection t (p : Kernel.Protection.t) =
  {
    p with
    on_page_mapped =
      (fun ctx proc region pte ->
        within t t.page_mapped (fun () -> p.on_page_mapped ctx proc region pte));
    on_protection_fault =
      (fun ctx proc f -> within t t.alg1 (fun () -> p.on_protection_fault ctx proc f));
    on_debug_trap = (fun ctx proc -> within t t.alg2 (fun () -> p.on_debug_trap ctx proc));
  }

let syscall_span t name =
  match Hashtbl.find_opt t.by_syscall name with
  | Some s -> s
  | None ->
    let s = span () in
    Hashtbl.replace t.by_syscall name s;
    s

(* Every default syscall, re-registered behind a timer. *)
let table t =
  let base = Kernel.Syscalls.default () in
  let tbl = Kernel.Syscalls.create () in
  List.iter
    (fun n ->
      match Kernel.Syscalls.find base n with
      | None -> ()
      | Some { name; handler } ->
        let also = syscall_span t name in
        Kernel.Syscalls.register tbl n ~name (fun m p ->
            within t ~also t.syscalls (fun () -> handler m p)))
    (Kernel.Syscalls.numbers base);
  tbl

(* The scheduler-boundary clock; [reset_boundary] before each run so the
   gap between runs is not counted as an iteration. *)
let sched_hook t () =
  let now = Stats.now_ns () in
  if t.last_boundary > 0 then t.iter_ns <- (now - t.last_boundary) :: t.iter_ns;
  t.last_boundary <- now;
  t.iters <- t.iters + 1

let reset_boundary t = t.last_boundary <- 0

(* Host time of the spans that are not nested in another span. *)
let hooked_ns t = t.alg1.self_ns + t.alg2.self_ns + t.page_mapped.self_ns + t.syscalls.self_ns

(* --- hardware entry points on a warmed machine --------------------------- *)

(* The cost of reading the clock twice, subtracted from per-call timings. *)
let clock_pair_ns () =
  let xs =
    List.init 2001 (fun _ ->
        let t0 = Stats.now_ns () in
        float_of_int (Stats.now_ns () - t0))
  in
  Stats.median xs

(* Median over nine batches of the per-call ns of [op], each batch [n]
   calls timed as a whole. *)
let batched ~n op =
  Stats.median
    (List.init 9 (fun _ ->
         let t0 = Stats.now_ns () in
         for i = 0 to n - 1 do
           op i
         done;
         float_of_int (Stats.now_ns () - t0) /. float_of_int n))

(* Per-call ns of [op] timed call by call (mean of the middle half), with
   [prepare] (untimed) run before each call. *)
let per_call ~clock ~n ~prepare op =
  Stats.midmean
    (List.init n (fun i ->
         prepare i;
         let t0 = Stats.now_ns () in
         op i;
         float_of_int (Stats.now_ns () - t0) -. clock))

type hw = {
  tlb_lookup_hit_ns : float;
  tlb_lookup_miss_ns : float;
  tlb_flush_ns : float;
  mmu_translate_hit_ns : float;
  mmu_translate_walk_ns : float;
  bbcache_lookup_hit_ns : float;
}

(* Time the TLB, MMU and block-cache entry points on [m], a machine stopped
   mid-run with warm TLBs and block cache. The loops disturb the machine's
   TLB contents and statistics: use a throwaway machine. *)
let hw_loops ~n (m : Kernel.Machine.t) =
  let mmu = m.mmu in
  let page = Hw.Phys.page_size m.phys in
  let itlb = Hw.Mmu.itlb mmu and dtlb = Hw.Mmu.dtlb mmu in
  let tlb = if Hw.Tlb.size itlb >= Hw.Tlb.size dtlb then itlb else dtlb in
  let entries = Array.of_list (Hw.Tlb.entries tlb) in
  let ne = Array.length entries in
  if ne = 0 then invalid_arg "Layers.hw_loops: cold TLBs";
  let vpn i = entries.(i mod ne).Hw.Tlb.vpn in
  let saved = Hw.Tlb.export tlb in
  let clock = clock_pair_ns () in
  let tlb_lookup_hit_ns = batched ~n (fun i -> ignore (Hw.Tlb.lookup tlb (vpn i))) in
  let tlb_lookup_miss_ns =
    batched ~n (fun i -> ignore (Hw.Tlb.lookup tlb ((1 lsl 20) + vpn i)))
  in
  let tlb_flush_ns =
    per_call ~clock ~n:(1 + (n / 100)) ~prepare:(fun _ -> Hw.Tlb.import tlb saved) (fun _ ->
        Hw.Tlb.flush tlb)
  in
  Hw.Tlb.import tlb saved;
  (* the entry set was cached for user accesses; translate as the kernel
     so split pages (supervisor PTEs) walk and fill instead of faulting *)
  let access = if tlb == itlb then Hw.Mmu.Fetch else Hw.Mmu.Read in
  let vaddr i = vpn i * page in
  let mmu_translate_hit_ns =
    batched ~n (fun i ->
        ignore (Hw.Mmu.translate_result mmu ~from_user:false access (vaddr i)))
  in
  let mmu_translate_walk_ns =
    per_call ~clock ~n:(1 + (n / 100))
      ~prepare:(fun i -> Hw.Tlb.invalidate tlb (vpn i))
      (fun i -> ignore (Hw.Mmu.translate_result mmu ~from_user:false access (vaddr i)))
  in
  let bbcache_lookup_hit_ns =
    match (m.bbcache, m.last_running) with
    | Some cache, Some pid ->
      let p = Option.get (Kernel.Machine.proc m pid) in
      let pa = Hw.Mmu.translate_result mmu ~from_user:false Hw.Mmu.Fetch p.regs.eip in
      if pa < 0 then invalid_arg "Layers.hw_loops: eip does not translate";
      ignore (Hw.Bbcache.lookup cache pa);
      batched ~n (fun _ -> ignore (Hw.Bbcache.lookup cache pa))
    | _ -> invalid_arg "Layers.hw_loops: no block cache or no running process"
  in
  {
    tlb_lookup_hit_ns;
    tlb_lookup_miss_ns;
    tlb_flush_ns;
    mmu_translate_hit_ns;
    mmu_translate_walk_ns;
    bbcache_lookup_hit_ns;
  }
