(* Hardware layer: physical memory, TLBs, MMU translation and permission
   semantics, CPU execution — including the TLB-desynchronization property
   the whole paper rests on. *)

let make_mmu ?(frames = 64) ?(itlb = 4) ?(dtlb = 4) () =
  let phys = Hw.Phys.create ~frames () in
  let cost = Hw.Cost.create () in
  let mmu = Hw.Mmu.create ~itlb_capacity:itlb ~dtlb_capacity:dtlb ~phys ~cost () in
  (phys, mmu)

(* --- Phys ---------------------------------------------------------------- *)

let test_phys_rw () =
  let phys = Hw.Phys.create ~frames:4 () in
  Hw.Phys.write32 phys ~frame:1 ~off:100 0xCAFEBABE;
  Alcotest.(check int) "read32" 0xCAFEBABE (Hw.Phys.read32 phys ~frame:1 ~off:100);
  Alcotest.(check int) "byte 0" 0xBE (Hw.Phys.read8 phys ~frame:1 ~off:100);
  Alcotest.(check int) "byte 3" 0xCA (Hw.Phys.read8 phys ~frame:1 ~off:103);
  Hw.Phys.copy_frame phys ~src:1 ~dst:2;
  Alcotest.(check int) "copied" 0xCAFEBABE (Hw.Phys.read32 phys ~frame:2 ~off:100);
  Hw.Phys.fill phys ~frame:2 0xFF;
  Alcotest.(check int) "filled" 0xFF (Hw.Phys.read8 phys ~frame:2 ~off:0)

let test_phys_bounds () =
  let phys = Hw.Phys.create ~frames:2 () in
  Alcotest.check_raises "bad frame" (Invalid_argument "Phys: frame 2 out of range")
    (fun () -> ignore (Hw.Phys.read8 phys ~frame:2 ~off:0));
  Alcotest.check_raises "off overflow" (Invalid_argument "Phys: offset 4093+4 out of page")
    (fun () -> ignore (Hw.Phys.read32 phys ~frame:0 ~off:4093))

let test_phys_page_size () =
  Alcotest.check_raises "non-power-of-two page"
    (Invalid_argument "Phys.create: page size must be a power of two") (fun () ->
      ignore (Hw.Phys.create ~page_size:3000 ~frames:1 ()));
  Alcotest.(check int) "shift" 12 (Hw.Phys.page_shift (Hw.Phys.create ~frames:1 ()))

(* Range accessors check the whole range before touching a byte: one that
   runs past the page end raises [Invalid_argument] like [read8]/[write8]
   at an out-of-page offset, and leaves memory as it was. *)
let test_phys_range_bounds () =
  let phys = Hw.Phys.create ~frames:2 () in
  let dst = Bytes.make 16 '.' in
  Alcotest.check_raises "read8 past the page end"
    (Invalid_argument "Phys: offset 4096+1 out of page") (fun () ->
      ignore (Hw.Phys.read8 phys ~frame:0 ~off:4096));
  Alcotest.check_raises "range read past the page end"
    (Invalid_argument "Phys: offset 4090+10 out of page") (fun () ->
      Hw.Phys.read_into phys ~frame:0 ~off:4090 ~len:10 dst ~pos:0);
  Alcotest.(check string) "no partial read" (String.make 16 '.') (Bytes.to_string dst);
  Alcotest.check_raises "write8 past the page end"
    (Invalid_argument "Phys: offset 4096+1 out of page") (fun () ->
      Hw.Phys.write8 phys ~frame:0 ~off:4096 1);
  Alcotest.check_raises "range write past the page end"
    (Invalid_argument "Phys: offset 4090+10 out of page") (fun () ->
      Hw.Phys.blit_from_string phys ~frame:0 ~off:4090 (String.make 10 'x'));
  Alcotest.check_raises "sub-range write past the page end"
    (Invalid_argument "Phys: offset 4095+2 out of page") (fun () ->
      Hw.Phys.blit_from_string phys ~frame:0 ~off:4095 ~pos:3 ~len:2 "abcdefgh");
  Alcotest.check_raises "range on a bad frame" (Invalid_argument "Phys: frame 2 out of range")
    (fun () -> Hw.Phys.read_into phys ~frame:2 ~off:0 ~len:1 dst ~pos:0);
  Alcotest.(check bool) "no partial write" true (Hw.Phys.is_zero_frame phys ~frame:0);
  Hw.Phys.blit_from_string phys ~frame:0 ~off:4090 ~pos:2 ~len:6 "abcdefgh";
  Hw.Phys.read_into phys ~frame:0 ~off:4090 ~len:6 dst ~pos:5;
  Alcotest.(check string) "a range ending at the page end fits" ".....cdefgh....."
    (Bytes.to_string dst)

(* A range write fires the write watch once per frame (re-armed by
   [watch_frame]) and keeps the ECC shadow equal to the primary; a range
   read corrects flips in ascending address order, like [read8] per byte. *)
let test_phys_range_watch_ecc () =
  let phys = Hw.Phys.create ~frames:2 () in
  Hw.Phys.enable_ecc phys;
  let fired = ref [] and corrected = ref [] in
  Hw.Phys.set_write_watch phys (Some (fun f -> fired := f :: !fired));
  Hw.Phys.set_ecc_hook phys (Some (fun a -> corrected := a :: !corrected));
  Hw.Phys.watch_frame phys ~frame:1;
  let payload = String.init 300 (fun i -> Char.chr ((i * 31) land 0xFF)) in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:100 ~pos:50 ~len:200 payload;
  Alcotest.(check (list int)) "one firing for the frame" [ 1 ] !fired;
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 payload;
  Alcotest.(check (list int)) "flag cleared until re-armed" [ 1 ] !fired;
  Hw.Phys.watch_frame phys ~frame:1;
  Hw.Phys.blit_from_string phys ~frame:1 ~off:1000 payload;
  Alcotest.(check (list int)) "fires again once re-armed" [ 1; 1 ] !fired;
  let page = Bytes.create 4096 in
  Hw.Phys.read_into phys ~frame:1 ~off:0 ~len:4096 page ~pos:0;
  Alcotest.(check int) "shadow equals primary" 0 (Hw.Phys.ecc_corrections phys);
  List.iter (fun off -> Hw.Phys.flip_bit phys ~frame:1 ~off ~bit:3) [ 1200; 1010; 1100 ];
  let got = Bytes.create 250 in
  Hw.Phys.read_into phys ~frame:1 ~off:1000 ~len:250 got ~pos:0;
  Alcotest.(check string) "flips corrected on read" (String.sub payload 0 250)
    (Bytes.to_string got);
  Alcotest.(check int) "three corrections" 3 (Hw.Phys.ecc_corrections phys);
  let pa off = Hw.Phys.addr phys ~frame:1 ~off in
  Alcotest.(check (list int)) "ascending correction order"
    [ pa 1010; pa 1100; pa 1200 ] (List.rev !corrected)

(* [read32]/[write32] are single little-endian word accesses; they must
   agree byte for byte with the per-byte assembly they replaced, for any
   int (the low 32 bits are stored, the read is unsigned). *)
(* Frames are lazy: a 64 MiB machine costs its frame table, not its
   frames. *)
let test_phys_create_is_lazy () =
  let before = Gc.allocated_bytes () in
  let phys = Hw.Phys.create ~frames:16384 () in
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) (Fmt.str "allocated %.0f bytes < 1 MB" bytes) true (bytes < 1e6);
  Alcotest.(check bool) "all frames zero" true (Hw.Phys.is_zero_frame phys ~frame:16383)

(* An injected flip into a never-written frame gives that frame its own
   buffer without firing the write watch, leaves every other frame
   reading zero, and is captured by a checkpoint like any written frame. *)
let test_phys_flip_untouched_frame () =
  let phys = Hw.Phys.create ~frames:4 () in
  let fired = ref [] in
  Hw.Phys.set_write_watch phys (Some (fun f -> fired := f :: !fired));
  Hw.Phys.watch_frame phys ~frame:2;
  Hw.Phys.flip_bit phys ~frame:2 ~off:7 ~bit:5;
  Alcotest.(check (list int)) "no watch" [] !fired;
  Alcotest.(check bool) "no longer zero" false (Hw.Phys.is_zero_frame phys ~frame:2);
  Alcotest.(check int) "flipped" 0x20 (Hw.Phys.read8 phys ~frame:2 ~off:7);
  List.iter
    (fun frame ->
      Alcotest.(check bool) (Fmt.str "frame %d zero" frame) true
        (Hw.Phys.is_zero_frame phys ~frame
        && Hw.Phys.to_string phys ~frame = String.make 4096 '\000'))
    [ 0; 1; 3 ];
  Hw.Phys.write8 phys ~frame:2 ~off:0 1;
  Alcotest.(check (list int)) "watch still armed" [ 2 ] !fired;
  let os = Kernel.Os.create ~protection:Kernel.Protection.none () in
  let m = Kernel.Os.phys os in
  let frame = Hw.Phys.frame_count m - 1 in
  Alcotest.(check bool) "last frame untouched" true (Hw.Phys.is_zero_frame m ~frame);
  let written () = Snap.Snapshot.frames_written (Snap.Snapshot.checkpoint os) in
  let n = written () in
  Hw.Phys.flip_bit m ~frame ~off:100 ~bit:0;
  let snap = Snap.Snapshot.checkpoint os in
  Alcotest.(check int) "one more frame captured" (n + 1) (Snap.Snapshot.frames_written snap);
  let os2 = Kernel.Os.create ~protection:Kernel.Protection.none () in
  Snap.Snapshot.restore os2 (Snap.Snapshot.decode (Snap.Snapshot.encode snap));
  Alcotest.(check int) "restored flip" 1 (Hw.Phys.read8 (Kernel.Os.phys os2) ~frame ~off:100)

let test_phys_word_bytes () =
  let phys = Hw.Phys.create ~page_size:4096 ~frames:2 () in
  let byte off = Hw.Phys.read8 phys ~frame:1 ~off in
  List.iter
    (fun v ->
      Hw.Phys.write32 phys ~frame:1 ~off:4092 v;
      for i = 0 to 3 do
        Alcotest.(check int) (Fmt.str "byte %d of %d" i v)
          ((v lsr (8 * i)) land 0xFF)
          (byte (4092 + i))
      done;
      let assembled =
        byte 4092 lor (byte 4093 lsl 8) lor (byte 4094 lsl 16) lor (byte 4095 lsl 24)
      in
      Alcotest.(check int) (Fmt.str "read32 of %d" v) assembled
        (Hw.Phys.read32 phys ~frame:1 ~off:4092);
      Alcotest.(check int) "read32_at" assembled
        (Hw.Phys.read32_at phys (Hw.Phys.addr phys ~frame:1 ~off:4092)))
    [
      0; 1; 0x7FFFFFFF; 0x80000000; 0xFFFFFFFF; -1; -2; min_int; max_int; 0x1_2345_6789;
      0xDEAD_BEEF_CAFE;
    ]

(* --- TLB ----------------------------------------------------------------- *)

let entry vpn frame : Hw.Tlb.entry = { vpn; frame; user = true; writable = true; nx = false }

let test_tlb_basics () =
  let tlb = Hw.Tlb.create ~name:"t" ~capacity:2 () in
  Hw.Tlb.insert tlb (entry 1 10);
  Hw.Tlb.insert tlb (entry 2 20);
  Alcotest.(check bool) "hit 1" true (Hw.Tlb.lookup tlb 1 <> None);
  Alcotest.(check bool) "hit 2" true (Hw.Tlb.lookup tlb 2 <> None);
  (* capacity 2: inserting a third evicts the FIFO victim (vpn 1) *)
  Hw.Tlb.insert tlb (entry 3 30);
  Alcotest.(check int) "size" 2 (Hw.Tlb.size tlb);
  Alcotest.(check bool) "vpn1 evicted" true (Hw.Tlb.peek tlb 1 = None);
  Alcotest.(check bool) "vpn3 present" true (Hw.Tlb.peek tlb 3 <> None)

let test_tlb_replace_same_vpn () =
  let tlb = Hw.Tlb.create ~name:"t" ~capacity:2 () in
  Hw.Tlb.insert tlb (entry 1 10);
  Hw.Tlb.insert tlb (entry 1 99);
  Alcotest.(check int) "still one entry" 1 (Hw.Tlb.size tlb);
  match Hw.Tlb.peek tlb 1 with
  | Some e -> Alcotest.(check int) "updated frame" 99 e.frame
  | None -> Alcotest.fail "entry missing"

let test_tlb_invalidate_flush () =
  let tlb = Hw.Tlb.create ~name:"t" ~capacity:8 () in
  Hw.Tlb.insert tlb (entry 1 10);
  Hw.Tlb.insert tlb (entry 2 20);
  Hw.Tlb.invalidate tlb 1;
  Alcotest.(check bool) "invalidated" true (Hw.Tlb.peek tlb 1 = None);
  Hw.Tlb.flush tlb;
  Alcotest.(check int) "flushed" 0 (Hw.Tlb.size tlb);
  Alcotest.(check int) "flush count" 1 (Hw.Tlb.stats tlb).flushes

(* The hit paths allocate nothing: MMU translation hits (fetch and read,
   both policies), a miss's walk and fill, LRU bulk hit accounting, and a
   flush. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_hit_paths_allocation_free () =
  let noise = minor_words_of ignore in
  let check_free what f =
    f ();
    Alcotest.(check (float 0.)) what noise (minor_words_of f)
  in
  List.iter
    (fun policy ->
      let phys = Hw.Phys.create ~frames:8 () in
      let mmu = Hw.Mmu.create ~tlb_policy:policy ~phys ~cost:(Hw.Cost.create ()) () in
      let pte = { Hw.Mmu.frame = 3; present = true; writable = true; user = true; nx = false } in
      Hw.Mmu.reload_cr3 mmu (fun _ -> Hw.Mmu.pack_pte pte);
      let name = Hw.Tlb.policy_name policy in
      List.iter
        (fun access ->
          check_free (Fmt.str "%s %a hits" name Hw.Mmu.pp_access access) (fun () ->
              for i = 1 to 10_000 do
                let vaddr = 0x5000 + (i land 0xFFF) in
                ignore (Hw.Mmu.translate_result mmu ~from_user:true access vaddr)
              done))
        [ Hw.Mmu.Fetch; Hw.Mmu.Read ];
      let itlb = Hw.Mmu.itlb mmu in
      (* a miss walks the pagetable (an int-returning walker) and fills *)
      check_free (name ^ " walk and fill") (fun () ->
          for i = 1 to 10_000 do
            Hw.Tlb.invalidate itlb 5;
            ignore (Hw.Mmu.translate_result mmu ~from_user:true Hw.Mmu.Fetch (0x5000 + i land 0xFFF))
          done);
      check_free (name ^ " note_hits") (fun () ->
          for _ = 1 to 10_000 do
            Hw.Tlb.note_hits itlb 5 3
          done);
      check_free (name ^ " flush") (fun () -> Hw.Tlb.flush itlb))
    [ Hw.Tlb.Fifo; Hw.Tlb.Lru ]

(* --- MMU ----------------------------------------------------------------- *)

let simple_walk table vpn =
  match Hashtbl.find_opt table vpn with Some p -> Hw.Mmu.pack_pte p | None -> Hw.Mmu.no_pte

let test_mmu_translate_and_cache () =
  let _, mmu = make_mmu () in
  let table : (int, Hw.Mmu.hw_pte) Hashtbl.t = Hashtbl.create 4 in
  Hashtbl.replace table 5 { Hw.Mmu.frame = 7; present = true; writable = true; user = true; nx = false };
  Hw.Mmu.reload_cr3 mmu (simple_walk table);
  let frame, off = Hw.Mmu.translate mmu ~from_user:true Hw.Mmu.Read (5 * 4096 + 42) in
  Alcotest.(check (pair int int)) "translation" (7, 42) (frame, off);
  (* now served from the DTLB even if the pagetable changes *)
  Hashtbl.remove table 5;
  let frame, _ = Hw.Mmu.translate mmu ~from_user:true Hw.Mmu.Read (5 * 4096) in
  Alcotest.(check int) "cached" 7 frame;
  (* but a fetch misses: the ITLB was never filled *)
  match Hw.Mmu.translate mmu ~from_user:true Hw.Mmu.Fetch (5 * 4096) with
  | exception Hw.Mmu.Page_fault { kind = Hw.Mmu.Not_present; access = Hw.Mmu.Fetch; _ } -> ()
  | _ -> Alcotest.fail "expected fetch fault"

let test_mmu_supervisor_fault () =
  let _, mmu = make_mmu () in
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 1 { Hw.Mmu.frame = 2; present = true; writable = true; user = false; nx = false };
  Hw.Mmu.reload_cr3 mmu (simple_walk table);
  (match Hw.Mmu.translate mmu ~from_user:true Hw.Mmu.Read 4096 with
  | exception Hw.Mmu.Page_fault { kind = Hw.Mmu.Protection; _ } -> ()
  | _ -> Alcotest.fail "user access to supervisor page must fault");
  (* a fault on miss must NOT fill the TLB *)
  Alcotest.(check bool) "dtlb unfilled" true (Hw.Tlb.peek (Hw.Mmu.dtlb mmu) 1 = None);
  (* supervisor access works *)
  let frame, _ = Hw.Mmu.translate mmu ~from_user:false Hw.Mmu.Read 4096 in
  Alcotest.(check int) "supervisor ok" 2 frame

let test_mmu_nx () =
  let _, mmu = make_mmu () in
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 1 { Hw.Mmu.frame = 2; present = true; writable = true; user = true; nx = true };
  Hw.Mmu.reload_cr3 mmu (simple_walk table);
  (* nx not enforced on legacy hardware *)
  let frame, _ = Hw.Mmu.translate mmu ~from_user:true Hw.Mmu.Fetch 4096 in
  Alcotest.(check int) "legacy fetch ok" 2 frame;
  Hw.Mmu.flush_tlbs mmu;
  Hw.Mmu.set_nx mmu true;
  match Hw.Mmu.translate mmu ~from_user:true Hw.Mmu.Fetch 4096 with
  | exception Hw.Mmu.Page_fault { kind = Hw.Mmu.Protection; access = Hw.Mmu.Fetch; _ } -> ()
  | _ -> Alcotest.fail "nx fetch must fault"

(* The heart of the paper: with a supervisor PTE toggled around TLB loads,
   the ITLB and DTLB hold different frames for the same virtual page, and
   both keep servicing their kind of access while the PTE stays locked. *)
let test_tlb_desync () =
  let phys, mmu = make_mmu () in
  let code_frame = 3 and data_frame = 4 in
  Hw.Phys.blit_from_string phys ~frame:code_frame ~off:0 "CODE";
  Hw.Phys.blit_from_string phys ~frame:data_frame ~off:0 "DATA";
  let pte = ref { Hw.Mmu.frame = code_frame; present = true; writable = true; user = false; nx = false } in
  let table vpn = if vpn = 9 then Hw.Mmu.pack_pte !pte else Hw.Mmu.no_pte in
  Hw.Mmu.reload_cr3 mmu table;
  let addr = 9 * 4096 in
  (* kernel: point at the code copy, unrestrict, let a fetch fill the ITLB,
     restrict again *)
  pte := { !pte with frame = code_frame; user = true };
  ignore (Hw.Mmu.fetch8 mmu ~from_user:true addr);
  pte := { !pte with user = false };
  (* kernel: point at the data copy, unrestrict, touch, restrict *)
  pte := { !pte with frame = data_frame; user = true };
  Hw.Mmu.touch_read mmu addr;
  pte := { !pte with user = false };
  (* desynchronized: same virtual address, two physical locations *)
  Alcotest.(check int) "fetch reads CODE" (Char.code 'C') (Hw.Mmu.fetch8 mmu ~from_user:true addr);
  Alcotest.(check int) "read reads DATA" (Char.code 'D') (Hw.Mmu.read8 mmu ~from_user:true addr);
  Hw.Mmu.write8 mmu ~from_user:true (addr + 1) (Char.code 'X');
  Alcotest.(check int) "write hits data copy" (Char.code 'X')
    (Hw.Phys.read8 phys ~frame:data_frame ~off:1);
  Alcotest.(check int) "code copy untouched" (Char.code 'O')
    (Hw.Phys.read8 phys ~frame:code_frame ~off:1);
  (* and with the PTE restricted, a fresh access (after invlpg) faults *)
  Hw.Mmu.invlpg mmu 9;
  match Hw.Mmu.read8 mmu ~from_user:true addr with
  | exception Hw.Mmu.Page_fault _ -> ()
  | _ -> Alcotest.fail "restricted PTE must fault after invlpg"

(* --- CPU ----------------------------------------------------------------- *)

let cpu_fixture program =
  let phys, mmu = make_mmu ~itlb:16 ~dtlb:16 () in
  let a = Isa.Asm.assemble ~origin:0 program in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 a.code;
  let table = Hashtbl.create 8 in
  (* identity-ish: vpn 0 -> frame 1 (code+data), vpn 1 -> frame 2 (stack) *)
  Hashtbl.replace table 0 { Hw.Mmu.frame = 1; present = true; writable = true; user = true; nx = false };
  Hashtbl.replace table 1 { Hw.Mmu.frame = 2; present = true; writable = true; user = true; nx = false };
  Hw.Mmu.reload_cr3 mmu (simple_walk table);
  let regs = Hw.Cpu.create_regs () in
  Hw.Cpu.set regs Isa.Reg.ESP 8000;
  (mmu, regs)

let step_n mmu regs n =
  for _ = 1 to n do
    let x = Hw.Cpu.step mmu regs in
    match x.code with
    | Hw.Cpu.No_trap | Hw.Cpu.Syscall -> ()
    | _ -> Alcotest.failf "unexpected fault: %a" (Hw.Cpu.pp_exit mmu) x
  done

let test_cpu_arith_flags () =
  let open Isa.Asm in
  let mmu, regs =
    cpu_fixture
      [ I (Mov_ri (EAX, 5)); I (Mov_ri (EBX, 5)); I (Sub (EAX, EBX)); I (Cmp_ri (EBX, 10)) ]
  in
  step_n mmu regs 3;
  Alcotest.(check int) "eax" 0 (Hw.Cpu.get regs Isa.Reg.EAX);
  Alcotest.(check bool) "zf" true regs.zf;
  step_n mmu regs 1;
  Alcotest.(check bool) "sf after cmp 5<10" true regs.sf

let test_cpu_stack_call_ret () =
  let open Isa.Asm in
  let mmu, regs =
    cpu_fixture
      [
        I (Mov_ri (EAX, 7));
        I (Push EAX);
        I (Call (Lbl "fn"));
        I (Pop ECX);
        I Hlt;
        L "fn";
        I (Mov_ri (EDX, 42));
        I Ret;
      ]
  in
  step_n mmu regs 6;
  Alcotest.(check int) "returned" 42 (Hw.Cpu.get regs Isa.Reg.EDX);
  Alcotest.(check int) "popped" 7 (Hw.Cpu.get regs Isa.Reg.ECX);
  Alcotest.(check int) "esp balanced" 8000 (Hw.Cpu.get regs Isa.Reg.ESP)

let test_cpu_wraparound () =
  let open Isa.Asm in
  let mmu, regs = cpu_fixture [ I (Mov_ri (EAX, 0xFFFFFFFF)); I (Add_ri (EAX, 2)) ] in
  step_n mmu regs 2;
  Alcotest.(check int) "wraps to 1" 1 (Hw.Cpu.get regs Isa.Reg.EAX)

let test_cpu_fault_restart () =
  let open Isa.Asm in
  (* Store to an unmapped page faults; after the kernel maps it, restarting
     the same instruction succeeds with identical register state. *)
  let phys, mmu = make_mmu () in
  let a = Isa.Asm.assemble ~origin:0 [ I (Mov_ri (EAX, 0x55)); I (Storeb (EBX, 0, EAX)) ] in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 a.code;
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 0 { Hw.Mmu.frame = 1; present = true; writable = true; user = true; nx = false };
  Hw.Mmu.reload_cr3 mmu (simple_walk table);
  let regs = Hw.Cpu.create_regs () in
  Hw.Cpu.set regs Isa.Reg.EBX 4096;
  step_n mmu regs 1;
  let eip_before = regs.eip in
  (match (Hw.Cpu.step mmu regs).code with
  | Hw.Cpu.Page_fault ->
    Alcotest.(check int) "fault addr" 4096 (Hw.Mmu.pending_fault mmu).addr;
    Alcotest.(check int) "eip unchanged" eip_before regs.eip
  | _ -> Alcotest.fail "expected page fault");
  Hashtbl.replace table 1 { Hw.Mmu.frame = 2; present = true; writable = true; user = true; nx = false };
  step_n mmu regs 1;
  Alcotest.(check int) "store landed" 0x55 (Hw.Phys.read8 phys ~frame:2 ~off:0)

let test_cpu_debug_trap () =
  let open Isa.Asm in
  let mmu, regs = cpu_fixture [ I Nop; I Nop ] in
  regs.tf <- true;
  let x = Hw.Cpu.step mmu regs in
  Alcotest.(check bool) "trap after retire" true x.debug;
  regs.tf <- false;
  let x = Hw.Cpu.step mmu regs in
  Alcotest.(check bool) "no trap" false x.debug

let test_cpu_hlt_faults () =
  let open Isa.Asm in
  let mmu, regs = cpu_fixture [ I Hlt ] in
  match (Hw.Cpu.step mmu regs).code with
  | Hw.Cpu.General_protection -> ()
  | _ -> Alcotest.fail "hlt in user mode must #GP"

let suite =
  [
    Alcotest.test_case "phys read/write/copy/fill" `Quick test_phys_rw;
    Alcotest.test_case "phys bounds checking" `Quick test_phys_bounds;
    Alcotest.test_case "phys rejects non-power-of-two pages" `Quick test_phys_page_size;
    Alcotest.test_case "phys word access matches byte assembly" `Quick test_phys_word_bytes;
    Alcotest.test_case "phys range accessors check the whole range" `Quick test_phys_range_bounds;
    Alcotest.test_case "phys range write watch and ECC" `Quick test_phys_range_watch_ecc;
    Alcotest.test_case "phys create allocates no frames" `Quick test_phys_create_is_lazy;
    Alcotest.test_case "phys flip into an untouched frame" `Quick test_phys_flip_untouched_frame;
    Alcotest.test_case "tlb insert/evict fifo" `Quick test_tlb_basics;
    Alcotest.test_case "tlb same-vpn replace" `Quick test_tlb_replace_same_vpn;
    Alcotest.test_case "tlb invalidate/flush" `Quick test_tlb_invalidate_flush;
    Alcotest.test_case "tlb and mmu hit paths allocate nothing" `Quick test_hit_paths_allocation_free;
    Alcotest.test_case "mmu translate + cache independence" `Quick test_mmu_translate_and_cache;
    Alcotest.test_case "mmu supervisor faults" `Quick test_mmu_supervisor_fault;
    Alcotest.test_case "mmu nx enforcement" `Quick test_mmu_nx;
    Alcotest.test_case "TLB desynchronization (the core trick)" `Quick test_tlb_desync;
    Alcotest.test_case "cpu arithmetic and flags" `Quick test_cpu_arith_flags;
    Alcotest.test_case "cpu push/call/ret/pop" `Quick test_cpu_stack_call_ret;
    Alcotest.test_case "cpu 32-bit wraparound" `Quick test_cpu_wraparound;
    Alcotest.test_case "cpu fault-and-restart" `Quick test_cpu_fault_restart;
    Alcotest.test_case "cpu single-step trap" `Quick test_cpu_debug_trap;
    Alcotest.test_case "cpu hlt is privileged" `Quick test_cpu_hlt_faults;
  ]
