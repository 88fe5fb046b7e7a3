(* The decoded basic-block cache (lib/hw/bbcache) and its dispatch path.

   The contract under test is run_block's bit-exactness pledge: with the
   cache on, every observable — event log, every cost counter, both TLB
   statistics, the detection verdicts of the defense x attack matrix and
   of the seed-7 fault-injection campaign — must equal the
   per-instruction interpreter's, byte for byte. Around the differential
   property: page-edge block construction (the once-"unreachable"
   [Truncated] decode arm is now exercised, and the negative-block
   fallback must stay exact), generation-based invalidation under
   self-modifying stores, [Tlb.note_hits] parity with individual finds
   including LRU recency, and snapshot restore treating the cache as
   derived state. *)

let run_to_end os = Kernel.Os.run ~fuel:2_000_000 os

let final_state os =
  let c = Kernel.Os.cost os in
  let tlb t =
    let s = Hw.Tlb.stats t in
    (s.Hw.Tlb.hits, s.misses, s.flushes, s.invalidations, s.evictions)
  in
  let mmu = Kernel.Os.mmu os in
  ( (c.cycles, c.insns, c.traps, c.split_faults, c.single_steps, c.syscalls, c.ctx_switches),
    (tlb (Hw.Mmu.itlb mmu), tlb (Hw.Mmu.dtlb mmu)),
    List.map
      (Fmt.str "%a" Kernel.Event_log.pp_event)
      (Kernel.Event_log.to_list (Kernel.Os.log os)) )

let with_bbcache enabled f =
  let saved = !Kernel.Machine.bbcache_default in
  Kernel.Machine.bbcache_default := enabled;
  Fun.protect ~finally:(fun () -> Kernel.Machine.bbcache_default := saved) f

(* Build and run the same spec twice — block dispatch on, then off. *)
let run_both spec =
  let go enabled =
    with_bbcache enabled (fun () ->
        let os = Workload.Harness.build spec in
        ignore (run_to_end os : Kernel.Os.stop_reason);
        os)
  in
  (go true, go false)

(* --- The differential property -------------------------------------------- *)

let gen_spec =
  QCheck.Gen.(
    let* defense =
      oneofl
        [ Defense.unprotected; Defense.nx; Defense.split_standalone; Defense.split_plus_cfi ]
    in
    let* guest =
      oneof
        [
          map (fun iters -> Workload.Guests.nbench ~iters ()) (int_range 1 4);
          map (fun size -> Workload.Guests.gzip ~size ()) (int_range 512 2048);
          map (fun iters -> Workload.Guests.syscall_bench ~iters ()) (int_range 5 40);
        ]
    in
    return (defense, guest))

let print_spec (defense, guest) =
  Fmt.str "%s/%s" (Defense.name defense) guest.Kernel.Image.name

let prop_bbcache_invisible =
  QCheck.Test.make ~name:"block dispatch is bit-invisible" ~count:30
    (QCheck.make ~print:print_spec gen_spec)
    (fun (defense, guest) ->
      let on, off = run_both (Workload.Harness.single ~defense guest) in
      final_state on = final_state off)

(* --- Golden scenarios on/off ---------------------------------------------- *)

(* [true] marks the split-memory runs: their Algorithm 2 single steps go
   through one-instruction blocks with the cache on, so the comparison
   covers the trap-flag path only if some step actually happened. *)
let golden_specs =
  [
    ("apache/split", true, Workload.Figures.apache_spec ~defense:Defense.split_standalone ~size:2048 ~requests:3);
    ("gzip/nx", false, Workload.Figures.gzip_spec ~defense:Defense.nx ~size:8192);
    ("ctxsw/split", true, Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:40);
    ("ctxsw/split+cfi", true, Workload.Figures.ctxsw_spec ~defense:Defense.split_plus_cfi ~iters:25);
    ("nbench/unprotected", false, Workload.Harness.single ~defense:Defense.unprotected (Workload.Guests.nbench ~iters:2 ()));
  ]

let test_goldens_on_off () =
  List.iter
    (fun (name, single_steps, spec) ->
      let on, off = run_both spec in
      Alcotest.(check bool) (name ^ " identical on/off") true (final_state on = final_state off);
      if single_steps then
        Alcotest.(check bool)
          (name ^ " single-steps under block dispatch")
          true
          ((Kernel.Os.cost on).single_steps > 0))
    golden_specs

(* The cache must actually be live under the protected scenarios above —
   a trivially-disabled cache would pass every differential test. *)
let test_cache_engaged () =
  let on, _ =
    run_both (Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:40)
  in
  match Kernel.Os.bbcache on with
  | None -> Alcotest.fail "bbcache missing with default on"
  | Some c ->
    let s = Hw.Bbcache.stats c in
    Alcotest.(check bool) "blocks built" true (s.Hw.Bbcache.blocks_built > 0);
    Alcotest.(check bool) "block hits" true (s.hits > 0)

(* --- Detection modes on/off ----------------------------------------------- *)

(* All 30 defense x attack matrix cells — injection and code-reuse rows —
   must produce identical outcomes with block dispatch on and off. *)
let test_matrix_on_off () =
  let cells enabled = with_bbcache enabled (fun () -> Reuse.Campaign.matrix ~jobs:2 ()) in
  let on = cells true and off = cells false in
  Alcotest.(check int) "30 cells" 30 (List.length on);
  Alcotest.(check bool) "matrix identical on/off" true (on = off);
  Alcotest.(check bool) "matrix matches threat model" true (Reuse.Campaign.check on)

(* The seed-7 fault-injection campaign: every verdict field — outcome,
   injected-fault details, detector firings, twin-comparison bits, base
   cycle counts — identical under block dispatch. *)
let test_inject_on_off () =
  let verdicts enabled =
    with_bbcache enabled (fun () ->
        Inject.campaign ~jobs:2 (Inject.default_plans ~seed:7 ()))
  in
  let on = verdicts true and off = verdicts false in
  Alcotest.(check int) "12 plans" 12 (List.length on);
  Alcotest.(check bool) "verdicts identical on/off" true (on = off);
  let _, _, escaped, _ = Inject.tally on in
  Alcotest.(check int) "no escapes" 0 escaped

(* --- Page-edge blocks and the negative-block fallback ---------------------- *)

(* An instruction whose encoding crosses a code-page boundary: 4093 one-
   byte nops fill page 0 up to offset 4093, then a 6-byte [mov ecx, imm]
   occupies bytes 4093..4098 — three bytes in vpn 0, three in vpn 1. The
   block builder must end the page-0 block before it (the [Truncated]
   decode arm), cache a negative block at its pa0, and dispatch must
   retire it through the exact byte-at-a-time fallback. *)
let straddle_program =
  let open Isa.Asm in
  List.init 4093 (fun _ -> I Isa.Insn.Nop)
  @ [ I (Mov_ri (ECX, 0x11223344)); I (Mov_ri (EDX, 0x55667788)); I Hlt ]

let straddle_fixture () =
  let phys = Hw.Phys.create ~frames:8 () in
  let cost = Hw.Cost.create () in
  let mmu = Hw.Mmu.create ~itlb_capacity:16 ~dtlb_capacity:16 ~phys ~cost () in
  let a = Isa.Asm.assemble ~origin:0 straddle_program in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 (String.sub a.code 0 4096);
  Hw.Phys.blit_from_string phys ~frame:2 ~off:0
    (String.sub a.code 4096 (String.length a.code - 4096));
  let table : (int, Hw.Mmu.hw_pte) Hashtbl.t = Hashtbl.create 4 in
  Hashtbl.replace table 0
    { Hw.Mmu.frame = 1; present = true; writable = true; user = true; nx = false };
  Hashtbl.replace table 1
    { Hw.Mmu.frame = 2; present = true; writable = true; user = true; nx = false };
  Hw.Mmu.reload_cr3 mmu (fun vpn ->
      match Hashtbl.find_opt table vpn with Some p -> Hw.Mmu.pack_pte p | None -> Hw.Mmu.no_pte);
  (phys, mmu, Hw.Cpu.create_regs (), a)

let test_page_straddle () =
  (* the decoder itself: operands past the page edge are [Truncated] *)
  let _, _, _, a = straddle_fixture () in
  (match Isa.Decode.of_string (String.sub a.code 0 4096) 4093 with
  | Error Isa.Decode.Truncated -> ()
  | _ -> Alcotest.fail "straddling insn must decode as Truncated at the page edge");
  (* reference: the per-instruction interpreter *)
  let _, mmu_ref, regs_ref, _ = straddle_fixture () in
  let retired_ref = ref 0 in
  let rec step_all () =
    match (Hw.Cpu.step mmu_ref regs_ref).code with
    | Hw.Cpu.No_trap ->
      incr retired_ref;
      step_all ()
    | Hw.Cpu.General_protection -> () (* hlt *)
    | _ -> Alcotest.fail "reference run: unexpected outcome"
  in
  step_all ();
  (* block dispatch over the same image *)
  let phys, mmu, regs, _ = straddle_fixture () in
  let cache = Hw.Bbcache.create ~phys () in
  let env = Hw.Exec_env.create () in
  env.Hw.Exec_env.cache <- Some cache;
  let retired = ref 0 in
  let rec drive () =
    let x = Hw.Cpu.run_block env mmu regs ~max_insns:10_000 ~tick_limit:max_int in
    retired := !retired + x.Hw.Cpu.retired;
    match x.code with
    | Hw.Cpu.No_trap -> drive ()
    | Hw.Cpu.General_protection -> ()
    | _ -> Alcotest.fail "block run: unexpected trap"
  in
  drive ();
  Alcotest.(check int) "same retire count" !retired_ref !retired;
  Alcotest.(check int) "ecx" 0x11223344 (Hw.Cpu.get regs Isa.Reg.ECX);
  Alcotest.(check int) "edx" 0x55667788 (Hw.Cpu.get regs Isa.Reg.EDX);
  Alcotest.(check int) "same eip" regs_ref.Hw.Cpu.eip regs.Hw.Cpu.eip;
  (* the straddler's pa0 is cached as a negative block *)
  let b = Hw.Bbcache.lookup cache ((1 * 4096) + 4093) in
  Alcotest.(check int) "negative block at the straddle pc" 0 b.Hw.Bbcache.n

(* --- Exit registers ----------------------------------------------------------- *)

(* A one-page machine: vpn 0 -> frame 1 holds [code] at address 0, vpn 1
   -> frame 2 is the stack; everything else is unmapped. [regs] set the
   registers before the first instruction. With [block], the machine's
   environment carries a block cache. *)
let exit_fixture ?(block = false) ~code regs =
  let phys = Hw.Phys.create ~frames:8 () in
  let cost = Hw.Cost.create () in
  let mmu = Hw.Mmu.create ~itlb_capacity:8 ~dtlb_capacity:8 ~phys ~cost () in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 code;
  Hw.Mmu.reload_cr3 mmu (fun vpn ->
      if vpn > 1 then Hw.Mmu.no_pte
      else
        Hw.Mmu.pack_pte
          { Hw.Mmu.frame = vpn + 1; present = true; writable = true; user = true; nx = false });
  let env = Hw.Mmu.env mmu in
  if block then env.cache <- Some (Hw.Bbcache.create ~phys ());
  let r = Hw.Cpu.create_regs () in
  Hw.Cpu.set r Isa.Reg.ESP 8000;
  List.iter (fun (reg, v) -> Hw.Cpu.set r reg v) regs;
  (mmu, env, r)

let asm insns = (Isa.Asm.assemble ~origin:0 (List.map (fun i -> Isa.Asm.I i) insns)).code

(* One case per exit class: the program at address 0, registers, the
   expected code. *)
let exit_cases =
  Isa.Insn.
    [
      ("retire", asm [ Mov_ri (EAX, 5) ], [], Hw.Cpu.No_trap);
      ("syscall", asm [ Int 0x80 ], [ (Isa.Reg.EAX, 4) ], Hw.Cpu.Syscall);
      ("page fault", asm [ Store (EBX, 0, EAX) ], [ (Isa.Reg.EBX, 0x5004) ], Hw.Cpu.Page_fault);
      ("#UD", "\xFF\x90", [], Hw.Cpu.Invalid_opcode);
      ("#GP", asm [ Hlt ], [], Hw.Cpu.General_protection);
    ]

let observe mmu (r : Hw.Cpu.regs) (x : Hw.Cpu.exit) =
  let f = Hw.Mmu.pending_fault mmu in
  let tlb t =
    let s = Hw.Tlb.stats t in
    (s.hits, s.misses)
  in
  ( { x with gp_reason = x.gp_reason },
    (if x.code = Hw.Cpu.Page_fault then Some (f.addr, f.access, f.kind) else None),
    (r.eip, Array.to_list r.gpr),
    ((Hw.Mmu.cost mmu).cycles, tlb (Hw.Mmu.itlb mmu), tlb (Hw.Mmu.dtlb mmu)) )

(* For every exit class, with the trap flag clear and set, [Cpu.step] and
   a one-instruction [run_block] leave identical exit registers, pending
   fault, registers, cycles and TLB statistics. *)
let test_step_equals_one_block () =
  List.iter
    (fun (name, code, regs, want) ->
      List.iter
        (fun tf ->
          let what = Fmt.str "%s%s" name (if tf then " (tf)" else "") in
          let mmu, _, r = exit_fixture ~code regs in
          r.tf <- tf;
          let stepped = observe mmu r (Hw.Cpu.step mmu r) in
          let mmu, env, r = exit_fixture ~block:true ~code regs in
          r.tf <- tf;
          let x = Hw.Cpu.run_block env mmu r ~max_insns:1 ~tick_limit:max_int in
          Alcotest.(check string)
            (what ^ ": code") (Hw.Cpu.exit_code_name want) (Hw.Cpu.exit_code_name x.code);
          Alcotest.(check int) (what ^ ": one attempt") 1 x.attempts;
          Alcotest.(check bool) (what ^ ": same exit state") true (stepped = observe mmu r x))
        [ false; true ])
    exit_cases

(* The #DB bit follows the trap flag on an instruction that retired or
   made a syscall, and never on one that faulted; a trap-flag run_block
   stops after one instruction whatever its budget. *)
let test_debug_bit () =
  List.iter
    (fun (name, code, regs, want) ->
      let mmu, env, r = exit_fixture ~block:true ~code regs in
      r.tf <- true;
      let x = Hw.Cpu.run_block env mmu r ~max_insns:50 ~tick_limit:max_int in
      Alcotest.(check int) (name ^ ": stops after one") 1 x.attempts;
      Alcotest.(check bool)
        (name ^ ": debug bit")
        (want = Hw.Cpu.No_trap || want = Hw.Cpu.Syscall)
        x.debug)
    exit_cases

(* The steady state of block dispatch: a loop of loads, stores, a call and
   a return on warm TLBs and a warm cache crosses no trap and allocates
   exactly nothing. *)
let test_run_block_allocation_free () =
  let code =
    let open Isa.Asm in
    (Isa.Asm.assemble ~origin:0
       [
         L "top";
         I (Add_ri (EAX, 1));
         I (Store (ESP, -8, EAX));
         I (Load (EBX, ESP, -8));
         I (Call (Lbl "fn"));
         I (Jmp (Lbl "top"));
         L "fn";
         I (Add (ECX, EBX));
         I Ret;
       ])
      .code
  in
  let mmu, env, r = exit_fixture ~block:true ~code [] in
  let run () = Hw.Cpu.run_block env mmu r ~max_insns:10_000 ~tick_limit:max_int in
  let x = run () in
  Alcotest.(check string) "warm-up ran trap-free" "no_trap" (Hw.Cpu.exit_code_name x.code);
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let noise = words ignore in
  let w = words (fun () -> ignore (run () : Hw.Cpu.exit)) in
  Alcotest.(check int) "all 10000 retired" 10_000 x.retired;
  Alcotest.(check (float 0.)) "minor words of a warm run_block" noise w

(* --- Self-modifying code: generation-based invalidation -------------------- *)

let test_smc_invalidation () =
  let phys = Hw.Phys.create ~frames:4 () in
  let cache = Hw.Bbcache.create ~phys () in
  let a = Isa.Asm.assemble ~origin:0 Isa.Asm.[ I (Mov_ri (EAX, 1)); I Hlt ] in
  Hw.Phys.blit_from_string phys ~frame:2 ~off:0 a.code;
  let pa0 = 2 * Hw.Phys.page_size phys in
  let b = Hw.Bbcache.lookup cache pa0 in
  Alcotest.(check int) "two insns (hlt ends the block)" 2 b.Hw.Bbcache.n;
  Alcotest.(check bool) "decoded imm" true (b.insns.(0) = Isa.Insn.Mov_ri (Isa.Reg.EAX, 1));
  let s = Hw.Bbcache.stats cache in
  Alcotest.(check int) "cold miss" 1 s.Hw.Bbcache.misses;
  ignore (Hw.Bbcache.lookup cache pa0 : Hw.Bbcache.block);
  Alcotest.(check int) "warm hit" 1 s.hits;
  (* a store into the watched frame bumps the generation... *)
  Hw.Phys.write8 phys ~frame:2 ~off:2 0x2A;
  Alcotest.(check int) "invalidation fired" 1 s.invalidations;
  Alcotest.(check bool) "block is stale" true (Hw.Bbcache.stale cache b);
  (* ...and the rebuilt block decodes the patched bytes *)
  let b' = Hw.Bbcache.lookup cache pa0 in
  Alcotest.(check int) "stale miss" 2 s.misses;
  Alcotest.(check bool) "patched imm visible" true
    (b'.insns.(0) = Isa.Insn.Mov_ri (Isa.Reg.EAX, 0x2A));
  Alcotest.(check bool) "rebuilt block is fresh" false (Hw.Bbcache.stale cache b');
  (* writes to frames backing no block stay invisible to the watch *)
  Hw.Phys.write8 phys ~frame:0 ~off:0 7;
  Alcotest.(check int) "unwatched frame: no invalidation" 1 s.invalidations;
  (* clear drops blocks but keeps generations monotonic *)
  Hw.Bbcache.clear cache;
  ignore (Hw.Bbcache.lookup cache pa0 : Hw.Bbcache.block);
  Alcotest.(check int) "clear forces rebuild" 3 s.misses

(* --- Tlb.note_hits parity -------------------------------------------------- *)

(* [note_hits t vpn n] must equal n consecutive [find]s: same hit
   statistics and, under LRU, the same recency order (so the same
   survivors after evicting inserts). *)
let test_note_hits_parity () =
  let mk () = Hw.Tlb.create ~policy:Hw.Tlb.Lru ~name:"t" ~capacity:4 () in
  let entry vpn : Hw.Tlb.entry =
    { vpn; frame = vpn + 10; user = true; writable = true; nx = false }
  in
  let a = mk () and b = mk () in
  List.iter
    (fun v ->
      Hw.Tlb.insert a (entry v);
      Hw.Tlb.insert b (entry v))
    [ 1; 2; 3; 4 ];
  for _ = 1 to 5 do
    ignore (Hw.Tlb.probe a 2 : int)
  done;
  Hw.Tlb.note_hits b 2 5;
  let sa = Hw.Tlb.stats a and sb = Hw.Tlb.stats b in
  Alcotest.(check int) "same hits" sa.Hw.Tlb.hits sb.Hw.Tlb.hits;
  Alcotest.(check int) "same misses" sa.misses sb.misses;
  (* vpn 2 is now the hottest entry in both; evicting inserts must pick
     the same victims *)
  List.iter
    (fun v ->
      Hw.Tlb.insert a (entry v);
      Hw.Tlb.insert b (entry v))
    [ 5; 6; 7 ];
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Fmt.str "vpn %d residency matches" v)
        (Hw.Tlb.peek a v <> None)
        (Hw.Tlb.peek b v <> None))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  Alcotest.(check bool) "hot vpn survives in both" true (Hw.Tlb.peek b 2 <> None)

(* --- Snapshot restore drops the cache -------------------------------------- *)

(* The cache is derived state: restore refills frames, so any block the
   target machine decoded before the restore describes bytes that no
   longer exist. Restoring into a machine that has already run (and
   cached blocks from its own, different history) must still replay the
   reference run bit-exactly. *)
let test_restore_drops_cache () =
  with_bbcache true (fun () ->
      let spec = Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:40 in
      let reference = Workload.Harness.build spec in
      ignore (run_to_end reference : Kernel.Os.stop_reason);
      let os1 = Workload.Harness.build spec in
      ignore (Kernel.Os.run ~fuel:5_000 os1 : Kernel.Os.stop_reason);
      let snap = Snap.Snapshot.checkpoint os1 in
      let os2 = Workload.Harness.build spec in
      ignore (Kernel.Os.run ~fuel:3_000 os2 : Kernel.Os.stop_reason);
      Snap.Snapshot.restore os2 snap;
      ignore (run_to_end os2 : Kernel.Os.stop_reason);
      Alcotest.(check bool)
        "restored run replays the reference bit-exactly" true
        (final_state os2 = final_state reference))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bbcache_invisible;
    Alcotest.test_case "golden scenarios identical on/off" `Quick test_goldens_on_off;
    Alcotest.test_case "cache engages under split defense" `Quick test_cache_engaged;
    Alcotest.test_case "matrix identical on/off" `Slow test_matrix_on_off;
    Alcotest.test_case "inject seed-7 campaign identical on/off" `Slow test_inject_on_off;
    Alcotest.test_case "page-straddling insn: negative-block fallback" `Quick test_page_straddle;
    Alcotest.test_case "step equals a one-instruction block per exit class" `Quick
      test_step_equals_one_block;
    Alcotest.test_case "debug bit on retire and syscall, not on faults" `Quick test_debug_bit;
    Alcotest.test_case "warm trap-free run_block allocates nothing" `Quick
      test_run_block_allocation_free;
    Alcotest.test_case "self-modifying store invalidates" `Quick test_smc_invalidation;
    Alcotest.test_case "note_hits equals repeated finds" `Quick test_note_hits_parity;
    Alcotest.test_case "snapshot restore drops the cache" `Quick test_restore_drops_cache;
  ]
