(* One benchmark invocation: set up, measure one workload for a fixed host
   time, check every operation, and report either the end-to-end metrics
   (tracing off) or the per-layer metrics of a separate traced pass. *)

module W = Workloads

let end_to_end =
  [
    ("setup_s", "s");
    ("sim_mips", "Minsn/s");
    ("minor_words_per_insn", "words/insn");
    ("peak_heap_mb", "MB");
    ("sim_cpi", "cycles/insn");
    ("host_req_per_s", "req/s");
    ("sim_req_per_mcyc", "req/Mcycle");
    ("sim_lat_p50_kcyc", "kcycles");
    ("sim_lat_p99_kcyc", "kcycles");
    ("snap_roundtrip_ms", "ms");
  ]

let per_layer =
  [
    ("harness.build_ms", "ms");
    ("sched.iters", "count");
    ("sched.iter_us_p50", "us");
    ("sched.iter_us_p99", "us");
    ("cost.ctx_switches", "count");
    ("split_memory.alg1.count", "count");
    ("split_memory.alg1.busy_ms", "ms");
    ("split_memory.alg2.count", "count");
    ("split_memory.alg2.busy_ms", "ms");
    ("split_memory.page_mapped.count", "count");
    ("cost.split_faults", "count");
    ("cost.single_steps", "count");
    ("syscalls.count", "count");
    ("syscalls.busy_ms", "ms");
    ("syscalls.read.count", "count");
    ("syscalls.write.count", "count");
    ("syscalls.nanosleep.count", "count");
    ("trace.run_ms", "ms");
    ("dispatch.self_ms", "ms");
    ("dispatch.self_ns_per_insn", "ns/insn");
    ("cost.traps", "count");
    ("hw.itlb.hit_ratio", "ratio");
    ("hw.dtlb.hit_ratio", "ratio");
    ("hw.itlb.misses", "count");
    ("hw.dtlb.misses", "count");
    ("hw.tlb.lookup_hit_ns", "ns");
    ("hw.tlb.lookup_miss_ns", "ns");
    ("hw.tlb.flush_ns", "ns");
    ("hw.mmu.translate_hit_ns", "ns");
    ("hw.mmu.translate_walk_ns", "ns");
    ("hw.bbcache.hit_ratio", "ratio");
    ("hw.bbcache.insns_per_block", "insns/block");
    ("hw.bbcache.blocks_built", "count");
    ("hw.bbcache.invalidations", "count");
    ("hw.bbcache.lookup_hit_ns", "ns");
    ("gc.minor_words_per_insn", "words/insn");
    ("gc.major_collections", "count");
    ("snap.checkpoint_ms", "ms");
    ("snap.encode_ms", "ms");
    ("snap.decode_ms", "ms");
    ("snap.restore_ms", "ms");
    ("snap.bytes", "bytes");
    ("snap.frames_written", "count");
    ("serve.offered", "count");
    ("serve.completed", "count");
    ("serve.lat_samples", "count");
    ("trace.overhead_pct", "%");
  ]

(* Used only to confirm a claim, never while a change is being written. *)
let held_out_seed = 20071

type config = {
  kind : W.kind;
  seed : int;
  seconds : float;
  trace : bool;
  size : W.size;
  rev : string;
  flambda : string;
}

(* --- operations and their checks ----------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int }

let count tally ~ops ok =
  tally.attempted <- tally.attempted + ops;
  if not ok then tally.failed <- tally.failed + ops

(* Counter deltas over one run: what the run itself did, also on a
   restored machine whose counters start mid-run. *)
let delta (a : W.counters) (b : W.counters) =
  List.map2 (fun (k, x) (_, y) -> (k, y - x)) a.fields b.fields

let bb_stats (x : W.machine) =
  match x.m.bbcache with
  | None -> (0, 0, 0, 0, 0)
  | Some c ->
    let s = Hw.Bbcache.stats c in
    (s.hits, s.misses, s.blocks_built, s.insns_built, s.invalidations)

(* Optional instrumentation of a run; the traced pass sets every field. *)
type instr = {
  protection : Kernel.Protection.t option;
  table : Kernel.Syscalls.table option;
  hook : (unit -> unit) option;
  layers : Layers.t option;
}

let untraced = { protection = None; table = None; hook = None; layers = None }

let traced () =
  let l = Layers.create () in
  {
    protection = Some (Layers.protection l (Defense.to_protection W.defense));
    table = Some (Layers.table l);
    hook = Some (Layers.sched_hook l);
    layers = Some l;
  }

(* One timed simulated run, as the per-layer tables need it. *)
type sample = {
  ns : int;
  minor_words : float;
  majors : int;
  work : (string * int) list;  (** counter deltas *)
  bb : int * int * int * int * int;  (** block-cache stat deltas *)
  counters : W.counters;  (** end state, for the equality checks *)
}

let timed_run instr (x : W.machine) =
  let c0 = W.counters x.m in
  let (h0, m0, b0, i0, v0) = bb_stats x in
  Option.iter Layers.reset_boundary instr.layers;
  let gc0 = (Gc.quick_stat ()).major_collections in
  let leg = W.run ?table:instr.table ?sched_hook:instr.hook x in
  let majors = (Gc.quick_stat ()).major_collections - gc0 in
  let c1 = W.counters x.m in
  let (h1, m1, b1, i1, v1) = bb_stats x in
  ( leg,
    {
      ns = leg.ns;
      minor_words = leg.minor_words;
      majors;
      work = delta c0 c1;
      bb = (h1 - h0, m1 - m0, b1 - b0, i1 - i0, v1 - v0);
      counters = c1;
    } )

(* A workload as a source of operations. [op instr] performs one
   operation: a machine run (run workloads) or a snapshot round trip plus
   the restored machine's continuation (checkpoint). Each reports its
   sample, the trip if any, and whether its check passed. *)
type source = {
  op : instr -> sample * W.trip option * bool;
  ops : int;  (** operations one [op] counts for *)
  reqs : int;  (** requests completed in one [op]'s simulated run *)
  model : W.counters;  (** modelled outcome the sim_* metrics read *)
  lat : int list;  (** its per-request modelled latencies, cycles *)
  builds : int list ref;  (** ns per Harness.build so far *)
}

(* Round trip of the finished [src] into [dst]; it passes when the
   restored machine reports [src]'s counters and event log and has nothing
   left to run. *)
let finished_trip tally ~(src : W.machine) ~(dst : W.machine) =
  let t = W.round_trip ~src ~dst in
  let leg = W.run dst in
  count tally ~ops:1
    (leg.stop = Kernel.Sched.All_exited
    && W.exits_ok dst.m
    && W.counters dst.m = W.counters src.m);
  t

let run_source c tally =
  let builds = ref [] in
  let build ?protection () =
    let x, ns = W.build ?protection c.size c.kind ~seed:c.seed in
    builds := ns :: !builds;
    x
  in
  (* the first run is the reference every later run must reproduce *)
  let x0 = build () in
  let leg0, s0 = timed_run untraced x0 in
  count tally ~ops:(W.offered c.size c.kind) (W.run_ok c.size c.kind x0 leg0);
  let model = s0.counters in
  let lat = match x0.reqs with Some lat -> !lat | None -> [ x0.m.cost.cycles ] in
  let dst = build () in
  (* each untraced run is followed by a round trip of its finished machine,
     so the codec is timed across the same window as the runs *)
  let op instr =
    let x = build ?protection:instr.protection () in
    let leg, s = timed_run instr x in
    let trip = if instr.layers = None then Some (finished_trip tally ~src:x ~dst) else None in
    (s, trip, W.run_ok c.size c.kind x leg && s.counters = model)
  in
  { op; ops = W.offered c.size c.kind; reqs = W.offered c.size c.kind; model; lat; builds }

let checkpoint_source c tally =
  let fx = W.fixture c.size ~seed:c.seed in
  count tally ~ops:1 fx.ref_ok;
  let builds = ref fx.build_ns in
  (* one restore target per instrumentation, reused: a freshly built
     machine would bring its allocation and first-touch costs into the
     timed round trip and continuation *)
  let targets = ref [] in
  let target instr =
    match List.assq_opt instr !targets with
    | Some x -> x
    | None ->
      let x, ns = W.build ?protection:instr.protection c.size Checkpoint ~seed:c.seed in
      builds := ns :: !builds;
      targets := (instr, x) :: !targets;
      x
  in
  let op instr =
    let dst = target instr in
    let t = W.round_trip ~src:fx.stopped ~dst in
    let leg, s = timed_run instr dst in
    ( s,
      Some t,
      leg.stop = Kernel.Sched.All_exited && W.exits_ok dst.m && s.counters = fx.reference )
  in
  { op; ops = 1; reqs = fx.cont_reqs; model = fx.reference; lat = fx.ref_lat; builds }

(* --- measurement --------------------------------------------------------- *)

type measured = {
  src : source;
  plain : sample list;  (** untraced operations *)
  traced : sample list;  (** traced operations (trace pass only) *)
  layers : Layers.t option;
  trips : W.trip list;
  hw : Layers.hw option;
}

let measure c tally =
  let src =
    match c.kind with Checkpoint -> checkpoint_source c tally | _ -> run_source c tally
  in
  for _ = 1 to c.size.setup_builds do
    let _, ns = W.build c.size c.kind ~seed:c.seed in
    src.builds := ns :: !(src.builds)
  done;
  let until = Stats.now_ns () + int_of_float (c.seconds *. 1e9) in
  let plain = ref [] and traced_ops = ref [] and trips = ref [] in
  let tr = if c.trace then Some (traced ()) else None in
  let step instr acc =
    let s, t, ok = src.op instr in
    count tally ~ops:src.ops ok;
    acc := s :: !acc;
    Option.iter (fun t -> trips := t :: !trips) t
  in
  (* untraced and traced operations alternate, so drift in the host hits
     both sides of the tracing-overhead ratio alike; the operation floor
     serves the end-to-end report's slow-end percentiles, and the traced
     pass reports medians and means *)
  let min_ops = if c.trace then 3 else c.size.min_ops in
  let rec loop i =
    if i < min_ops || Stats.now_ns () < until then begin
      step untraced plain;
      Option.iter (fun instr -> step instr traced_ops) tr;
      loop (i + 1)
    end
  in
  loop 0;
  let trips = List.rev !trips in
  (* the hardware loops run on a throwaway machine stopped halfway *)
  let hw =
    if not c.trace then None
    else begin
      let x, _ = W.build c.size c.kind ~seed:c.seed in
      ignore (W.run ~fuel:(W.field src.model "insns" / 2) x);
      Some (Layers.hw_loops ~n:c.size.hw_calls x.m)
    end
  in
  {
    src;
    plain = List.rev !plain;
    traced = List.rev !traced_ops;
    layers = Option.bind tr (fun i -> i.layers);
    trips;
    hw;
  }

(* --- metrics ------------------------------------------------------------- *)

let fl = float_of_int
let work s k = List.assoc k s.work
let med f xs = Stats.median (List.map f xs)
let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let ratio a b = if a + b = 0 then 0.0 else fl a /. fl (a + b)

(* Minor words per simulated instruction over a list of runs. *)
let words_per_insn runs =
  sum (fun s -> s.minor_words) runs /. sum (fun s -> fl (work s "insns")) runs

(* The host alternates between a fast and a slow mode as other tenants
   come and go, and the share of time in each drifts from one invocation
   to the next. Host rates and round-trip times are therefore read at the
   slow end — the 10th percentile of per-operation rates, the 90th of
   per-operation times — which holds still where a median jumps between
   the modes. Set-up time stays a median. *)
let slow_rate = 0.10
let slow_time = 0.90

let e2e_metrics (r : measured) =
  let model k = fl (W.field r.src.model k) in
  let lat = List.map fl r.src.lat in
  let rate per_ns =
    Stats.percentile slow_rate (List.map (fun s -> per_ns s /. fl s.ns) r.plain)
  in
  let trip_ms = List.map (fun t -> fl (W.trip_ns t) /. 1e6) r.trips in
  [
    ("setup_s", med (fun ns -> fl ns /. 1e9) !(r.src.builds));
    ("sim_mips", rate (fun s -> fl (work s "insns") *. 1e3));
    ("minor_words_per_insn", words_per_insn r.plain);
    ("peak_heap_mb", fl (Gc.quick_stat ()).top_heap_words *. 8.0 /. 1e6);
    ("sim_cpi", model "cycles" /. model "insns");
    ("host_req_per_s", rate (fun _ -> fl r.src.reqs *. 1e9));
    ("sim_req_per_mcyc", fl (List.length lat) *. 1e6 /. model "cycles");
    ("sim_lat_p50_kcyc", Stats.percentile 0.50 lat /. 1e3);
    ("sim_lat_p99_kcyc", Stats.percentile 0.99 lat /. 1e3);
    ("snap_roundtrip_ms", Stats.percentile slow_time trip_ms);
  ]

let layer_metrics c (r : measured) =
  let l = Option.get r.layers and hw = Option.get r.hw in
  let n = fl (List.length r.traced) in
  let per_run x = fl x /. n in
  let ms_per_run ns = fl ns /. n /. 1e6 in
  let t = List.hd r.traced in
  let sys name =
    match Hashtbl.find_opt l.by_syscall name with Some s -> per_run s.calls | None -> 0.0
  in
  let iter_us = List.map (fun ns -> fl ns /. 1e3) l.iter_ns in
  let run_ns = List.fold_left (fun a s -> a + s.ns) 0 r.traced in
  let self_ns = fl (run_ns - Layers.hooked_ns l) /. n in
  let bh, bm, bb, bi, bv = t.bb in
  [
    ("harness.build_ms", med (fun ns -> fl ns /. 1e6) !(r.src.builds));
    ("sched.iters", per_run l.iters);
    ("sched.iter_us_p50", Stats.percentile 0.50 iter_us);
    ("sched.iter_us_p99", Stats.percentile 0.99 iter_us);
    ("cost.ctx_switches", fl (work t "ctx_switches"));
    ("split_memory.alg1.count", per_run l.alg1.calls);
    ("split_memory.alg1.busy_ms", ms_per_run l.alg1.self_ns);
    ("split_memory.alg2.count", per_run l.alg2.calls);
    ("split_memory.alg2.busy_ms", ms_per_run l.alg2.self_ns);
    ("split_memory.page_mapped.count", per_run l.page_mapped.calls);
    ("cost.split_faults", fl (work t "split_faults"));
    ("cost.single_steps", fl (work t "single_steps"));
    ("syscalls.count", per_run l.syscalls.calls);
    ("syscalls.busy_ms", ms_per_run l.syscalls.self_ns);
    ("syscalls.read.count", sys "read");
    ("syscalls.write.count", sys "write");
    ("syscalls.nanosleep.count", sys "nanosleep");
    ("trace.run_ms", ms_per_run run_ns);
    ("dispatch.self_ms", self_ns /. 1e6);
    ("dispatch.self_ns_per_insn", self_ns /. fl (work t "insns"));
    ("cost.traps", fl (work t "traps"));
    ("hw.itlb.hit_ratio", ratio (work t "itlb_hits") (work t "itlb_misses"));
    ("hw.dtlb.hit_ratio", ratio (work t "dtlb_hits") (work t "dtlb_misses"));
    ("hw.itlb.misses", fl (work t "itlb_misses"));
    ("hw.dtlb.misses", fl (work t "dtlb_misses"));
    ("hw.tlb.lookup_hit_ns", hw.tlb_lookup_hit_ns);
    ("hw.tlb.lookup_miss_ns", hw.tlb_lookup_miss_ns);
    ("hw.tlb.flush_ns", hw.tlb_flush_ns);
    ("hw.mmu.translate_hit_ns", hw.mmu_translate_hit_ns);
    ("hw.mmu.translate_walk_ns", hw.mmu_translate_walk_ns);
    ("hw.bbcache.hit_ratio", ratio bh bm);
    ("hw.bbcache.insns_per_block", if bb = 0 then 0.0 else fl bi /. fl bb);
    ("hw.bbcache.blocks_built", fl bb);
    ("hw.bbcache.invalidations", fl bv);
    ("hw.bbcache.lookup_hit_ns", hw.bbcache_lookup_hit_ns);
    ("gc.minor_words_per_insn", words_per_insn r.plain);
    ("gc.major_collections", med (fun s -> fl s.majors) r.plain);
    ("snap.checkpoint_ms", med (fun t -> fl t.W.checkpoint_ns /. 1e6) r.trips);
    ("snap.encode_ms", med (fun t -> fl t.W.encode_ns /. 1e6) r.trips);
    ("snap.decode_ms", med (fun t -> fl t.W.decode_ns /. 1e6) r.trips);
    ("snap.restore_ms", med (fun t -> fl t.W.restore_ns /. 1e6) r.trips);
    ("snap.bytes", fl (List.hd r.trips).bytes);
    ("snap.frames_written", fl (List.hd r.trips).frames_written);
    ("serve.offered", fl (W.offered c.size c.kind));
    ("serve.completed", fl (List.length r.src.lat));
    ("serve.lat_samples", fl (List.length r.src.lat));
    ( "trace.overhead_pct",
      (med (fun s -> fl s.ns) r.traced /. med (fun s -> fl s.ns) r.plain -. 1.0) *. 100.0 );
  ]

(* --- report -------------------------------------------------------------- *)

let provenance c (r : measured) =
  Obs.Json.(
    Obj
      [
        ("workload", Str (W.name c.kind));
        ("seed", Int c.seed);
        ("held_out", Bool (c.seed = held_out_seed));
        ("trace", Bool c.trace);
        ("seconds", Float c.seconds);
        ("reps", Int (List.length r.plain));
        ("traced_reps", Int (List.length r.traced));
        ("snap_trips", Int (List.length r.trips));
        ("builds", Int (List.length !(r.src.builds)));
        ("jobs", Int 1);
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("ocaml", Str Sys.ocaml_version);
        ("flambda", Str c.flambda);
        ("rev", Str c.rev);
        ("defense", Str (Defense.name W.defense));
      ])

(* Sample counts behind the order statistics; a tail percentile without
   ten samples beyond it is flagged rather than silently printed. *)
let note (r : measured) name =
  let unresolved p n = if Stats.tail_resolved ~p n then "" else ", tail unresolved" in
  let slow p what n = Fmt.str "p%02.0f of n=%d %s%s" (100. *. p) n what (unresolved 0.90 n) in
  match name with
  | "sim_lat_p50_kcyc" -> Fmt.str "n=%d" (List.length r.src.lat)
  | "sim_lat_p99_kcyc" ->
    let n = List.length r.src.lat in
    Fmt.str "n=%d%s" n (unresolved 0.99 n)
  | "sched.iter_us_p50" -> Fmt.str "n=%d" (List.length (Option.get r.layers).iter_ns)
  | "sched.iter_us_p99" ->
    let n = List.length (Option.get r.layers).iter_ns in
    Fmt.str "n=%d%s" n (unresolved 0.99 n)
  | "setup_s" | "harness.build_ms" -> Fmt.str "median of %d" (List.length !(r.src.builds))
  | "sim_mips" | "host_req_per_s" -> slow slow_rate "per-run rates" (List.length r.plain)
  | "snap_roundtrip_ms" -> slow slow_time "trip times" (List.length r.trips)
  | "minor_words_per_insn" | "gc.minor_words_per_insn" ->
    Fmt.str "over %d runs" (List.length r.plain)
  | "gc.major_collections" -> Fmt.str "median of %d" (List.length r.plain)
  | "snap.checkpoint_ms" | "snap.encode_ms" | "snap.decode_ms" | "snap.restore_ms" ->
    Fmt.str "median of %d" (List.length r.trips)
  | "trace.overhead_pct" ->
    Fmt.str "medians of %d traced / %d untraced" (List.length r.traced) (List.length r.plain)
  | _ -> ""

(* Where the traced run's host time went: the rows sum to the run's wall
   time, dispatch being the remainder after the hooked spans. *)
let pp_layer_split ppf (r : measured) =
  let l = Option.get r.layers in
  let n = fl (List.length r.traced) in
  let run_ns = fl (List.fold_left (fun a s -> a + s.ns) 0 r.traced) /. n in
  let row name ns =
    Fmt.pf ppf "  %-44s %10.3f ms %6.1f%%@." name (ns /. 1e6) (100. *. ns /. run_ns)
  in
  Fmt.pf ppf "host time of one traced run (self times; rows sum to the run):@.";
  row "syscalls (all handlers)" (fl l.syscalls.self_ns /. n);
  row "split_memory.alg1 (protection fault)" (fl l.alg1.self_ns /. n);
  row "split_memory.alg2 (debug trap)" (fl l.alg2.self_ns /. n);
  row "split_memory.page_mapped" (fl l.page_mapped.self_ns /. n);
  row "dispatch (remainder: cpu, mmu, trap, sched)" (run_ns -. (fl (Layers.hooked_ns l) /. n));
  row "= traced run wall" run_ns;
  Fmt.pf ppf "per-syscall host time (inclusive):@.";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) l.by_syscall []
  |> List.sort compare
  |> List.iter (fun (name, (s : Layers.span)) ->
         if s.calls > 0 then
           Fmt.pf ppf "  %-12s calls/run %10.1f  us_p50 %8.3f  (n=%d)@." name
             (fl s.calls /. n)
             (Stats.percentile 0.5 (List.map fl s.samples) /. 1e3)
             s.calls)

let result_json tally metrics units =
  Obs.Json.(
    Obj
      [
        ("correct", Bool (tally.failed = 0));
        ("attempted", Int tally.attempted);
        ("failed", Int tally.failed);
        ( "metrics",
          Obj
            (List.map
               (fun (k, v) ->
                 if not (Float.is_finite v) then failwith (k ^ " is not a finite number");
                 (k, Obj [ ("value", Float v); ("unit", Str (List.assoc k units)) ]))
               metrics) );
      ])

type outcome = { tally : tally; metrics : (string * float) list; measured : measured }

(* Measure, print the human report, and print the result as the last line. *)
let run ?(out = Format.std_formatter) c =
  let tally = { attempted = 0; failed = 0 } in
  let r = measure c tally in
  let metrics, units =
    if c.trace then (layer_metrics c r, per_layer) else (e2e_metrics r, end_to_end)
  in
  Fmt.pf out "provenance %s@." (Obs.Json.to_string (provenance c r));
  List.iter
    (fun (k, v) ->
      Fmt.pf out "  %-34s %16.6f %-12s %s@." k v (List.assoc k units) (note r k))
    metrics;
  if c.trace then pp_layer_split out r;
  Fmt.pf out "  %-34s %16.6f %-12s attempted=%d failed=%d@." "fail_rate"
    (fl tally.failed /. fl (max 1 tally.attempted))
    "ratio" tally.attempted tally.failed;
  Fmt.pf out "%s@." (Obs.Json.to_string (result_json tally metrics units));
  { tally; metrics; measured = r }
