(* The benchmark's four workloads: each is the paper's system (split memory,
   standalone) on a single machine, driven through the harness, the
   scheduler and the snapshot codec. This module builds and runs them and
   checks their outputs; timing loops live in [Bench]. *)

module H = Workload.Harness
module M = Kernel.Machine

type kind = Ctxsw | Compute | Serve | Checkpoint

let all =
  [
    ("ctxsw_split", Ctxsw);
    ("compute_split", Compute);
    ("serve_split", Serve);
    ("checkpoint_serve", Checkpoint);
  ]

let name kind = fst (List.find (fun (_, k) -> k = kind) all)
let of_name s = List.assoc_opt s all

(* Work per machine and per invocation. [full] is what the benchmark
   times; [small] is the self-test's quick variant of the same machines. *)
type size = {
  ctxsw_iters : int;  (** ping-pong exchanges per run *)
  compute_rounds : int;  (** numeric-sort rounds per run *)
  serve_pairs : int;  (** client/server pairs on a serving machine *)
  serve_requests : int;  (** requests per client, serve workload *)
  ckpt_requests : int;  (** requests per client, checkpoint workload *)
  min_ops : int;
      (** untraced operations an invocation makes even past its deadline,
          so the end-to-end slow-end percentiles have ten samples beyond
          them *)
  setup_builds : int;
      (** timed builds on top of the runs' own, so [setup_s] is a median even
          where few runs fit in the measured time *)
  hw_calls : int;  (** calls per batch in the hardware timing loops *)
}

let full =
  {
    ctxsw_iters = 150;
    compute_rounds = 10;
    serve_pairs = 8;
    serve_requests = 128;
    ckpt_requests = 160;
    min_ops = 100;
    setup_builds = 15;
    hw_calls = 200_000;
  }

let small =
  {
    ctxsw_iters = 40;
    compute_rounds = 2;
    serve_pairs = 2;
    serve_requests = 8;
    ckpt_requests = 8;
    min_ops = 3;
    setup_builds = 1;
    hw_calls = 1000;
  }

let defense = Defense.split_standalone

let serve_config size ~requests ~seed =
  Serve.Scenario.config ~defense ~concurrency:size.serve_pairs ~requests ~seed ()

(* The machine a workload runs for one seed: the seed drives the kernel
   PRNG (stack jitter) everywhere and the load generator's schedules on
   the serving machines. [protection] substitutes a copy of the defense's
   hooks (the traced run's timers). *)
let spec ?protection size kind ~seed =
  let s =
    match kind with
    | Ctxsw -> Workload.Figures.ctxsw_spec ~defense ~iters:size.ctxsw_iters
    | Compute ->
      H.single ~defense (Workload.Guests.numeric_sort ~rounds:size.compute_rounds ())
    | Serve -> Serve.Scenario.spec (serve_config size ~requests:size.serve_requests ~seed)
    | Checkpoint -> Serve.Scenario.spec (serve_config size ~requests:size.ckpt_requests ~seed)
  in
  { s with H.seed = Some seed; protection }

(* Requests offered by one machine run. On ctxsw a request is one
   ping-pong exchange; compute has no requests, so the run itself is the
   unit; serving machines count client requests. *)
let offered size = function
  | Ctxsw -> size.ctxsw_iters
  | Compute -> 1
  | Serve -> size.serve_pairs * size.serve_requests
  | Checkpoint -> size.serve_pairs * size.ckpt_requests

(* --- per-request latency from the syscall tracer ------------------------- *)

(* Modelled latencies (cycles, newest first) of the [client] processes'
   requests. A request's clock starts when the client's request write
   returns and stops when it has read [resp] response bytes — the span
   [Serve.Scenario] measures. *)
let track_requests (m : M.t) ~client ~resp =
  let lat = ref [] in
  let open_reqs = Hashtbl.create 16 in
  List.iter
    (fun (p : Kernel.Proc.t) ->
      if p.name = client then Hashtbl.replace open_reqs p.pid (ref 0, ref 0))
    (M.procs m);
  m.syscall_tracer <-
    Some
      (fun (tr : M.syscall_trace) ->
        match Hashtbl.find_opt open_reqs tr.sys_pid with
        | None -> ()
        | Some (started, remaining) -> (
          match (tr.sys_number, tr.sys_outcome) with
          | 4, M.Returned n when n > 0 && !remaining <= 0 ->
            started := m.cost.cycles;
            remaining := resp
          | 3, M.Returned n when n > 0 && !remaining > 0 ->
            remaining := !remaining - n;
            if !remaining <= 0 then lat := (m.cost.cycles - !started) :: !lat
          | _ -> ()));
  lat

let attach_requests kind (m : M.t) =
  match kind with
  | Ctxsw -> Some (track_requests m ~client:"ctxsw-ping" ~resp:4)
  | Serve | Checkpoint ->
    Some (track_requests m ~client:"serve-client" ~resp:(Serve.Scenario.config ()).resp_size)
  | Compute -> None

(* --- building and running ------------------------------------------------ *)

type machine = {
  os : Kernel.Os.t;
  m : M.t;
  reqs : int list ref option;  (** request latencies, where requests are tracked *)
}

(* Harness.build, timed: the benchmark's set-up cost. *)
let build ?protection size kind ~seed =
  let os, ns = Stats.timed (fun () -> H.build (spec ?protection size kind ~seed)) in
  let m = Kernel.Os.machine os in
  ({ os; m; reqs = attach_requests kind m }, ns)

type leg = { stop : Kernel.Sched.stop_reason; ns : int; minor_words : float }

(* Schedule until [fuel] instructions ran or the machine stopped. *)
let run ?table ?sched_hook ?(fuel = 100_000_000) (x : machine) =
  x.m.sched_hook <- sched_hook;
  let w0 = Gc.minor_words () in
  let stop, ns = Stats.timed (fun () -> Kernel.Sched.run ~fuel ?table x.m) in
  let minor_words = Gc.minor_words () -. w0 in
  x.m.sched_hook <- None;
  { stop; ns; minor_words }

(* The simulated outputs two runs of the same machine must agree on. *)
type counters = { fields : (string * int) list; events : Kernel.Event_log.event list }

let counters (m : M.t) =
  let c = m.cost in
  let itlb = Hw.Tlb.stats (Hw.Mmu.itlb m.mmu) and dtlb = Hw.Tlb.stats (Hw.Mmu.dtlb m.mmu) in
  {
    fields =
      [
        ("cycles", c.cycles);
        ("insns", c.insns);
        ("traps", c.traps);
        ("split_faults", c.split_faults);
        ("single_steps", c.single_steps);
        ("syscalls", c.syscalls);
        ("ctx_switches", c.ctx_switches);
        ("itlb_hits", itlb.hits);
        ("itlb_misses", itlb.misses);
        ("dtlb_hits", dtlb.hits);
        ("dtlb_misses", dtlb.misses);
      ];
    events = Kernel.Event_log.to_list m.log;
  }

let field c name = List.assoc name c.fields

(* Every guest exited with status 0. *)
let exits_ok (m : M.t) =
  List.for_all
    (fun (p : Kernel.Proc.t) -> p.state = Kernel.Proc.Zombie (Kernel.Proc.Exited 0))
    (M.procs m)

(* A finished run passes when the machine stopped with every guest exited
   0 and, where requests are tracked, every offered request completed. *)
let run_ok size kind (x : machine) (l : leg) =
  l.stop = Kernel.Sched.All_exited
  && exits_ok x.m
  && match x.reqs with None -> true | Some lat -> List.length !lat = offered size kind

(* --- snapshot round trips ------------------------------------------------ *)

type trip = {
  checkpoint_ns : int;
  encode_ns : int;
  decode_ns : int;
  restore_ns : int;
  bytes : int;
  frames_written : int;
}

let trip_ns t = t.checkpoint_ns + t.encode_ns + t.decode_ns + t.restore_ns

(* Checkpoint [src], encode, decode, and restore into [dst]. *)
let round_trip ~(src : machine) ~(dst : machine) =
  let snap, checkpoint_ns = Stats.timed (fun () -> Snap.Snapshot.checkpoint src.os) in
  let bin, encode_ns = Stats.timed (fun () -> Snap.Snapshot.encode snap) in
  let snap', decode_ns = Stats.timed (fun () -> Snap.Snapshot.decode bin) in
  let (), restore_ns = Stats.timed (fun () -> Snap.Snapshot.restore dst.os snap') in
  {
    checkpoint_ns;
    encode_ns;
    decode_ns;
    restore_ns;
    bytes = String.length bin;
    frames_written = Snap.Snapshot.frames_written snap';
  }

(* The checkpoint workload's fixture: [stopped] is a serving machine
   halted mid-run and never resumed, the source of every round trip;
   [reference] is its untouched twin, stopped at the same instruction and
   run on to completion — the outcome every restored machine must
   reproduce. (An uninterrupted run is no reference: the fuel stop ends
   the running quantum early, so the schedule after it differs.) A probe
   run finds the halfway instruction count. *)
type fixture = {
  stopped : machine;
  reference : counters;
  ref_ok : bool;
  ref_lat : int list;  (** request latencies of the whole reference run *)
  cont_reqs : int;  (** requests completed after the stop point *)
  build_ns : int list;
}

let fixture size ~seed =
  let probe, b0 = build size Checkpoint ~seed in
  let probe_leg = run probe in
  let stop_fuel = max 1 (probe.m.cost.insns / 2) in
  let stopped, b1 = build size Checkpoint ~seed in
  let s_leg = run ~fuel:stop_fuel stopped in
  let twin, b2 = build size Checkpoint ~seed in
  let t_leg = run ~fuel:stop_fuel twin in
  let lat = Option.get twin.reqs in
  let at_stop = List.length !lat in
  let t_end = run twin in
  let reference = counters twin.m in
  {
    stopped;
    reference;
    ref_ok =
      run_ok size Checkpoint probe probe_leg
      && run_ok size Checkpoint twin t_end
      && s_leg.stop = Kernel.Sched.Fuel_exhausted
      && t_leg.stop = Kernel.Sched.Fuel_exhausted;
    ref_lat = !lat;
    cont_reqs = List.length !lat - at_stop;
    build_ns = [ b0; b1; b2 ];
  }
