(* Property-based tests (qcheck, registered as alcotest cases). *)

open QCheck

(* --- generators ------------------------------------------------------------ *)

let gen_reg = Gen.oneofl Isa.Reg.all
let gen_imm32 = Gen.int_range 0 0xFFFFFFFF
let gen_disp = Gen.int_range (-0x80000000) 0x7FFFFFFF
let gen_shift = Gen.int_range 0 255
let gen_rel = gen_disp

let gen_instr : Isa.Insn.t Gen.t =
  let open Gen in
  let open Isa.Insn in
  oneof
    [
      return Nop;
      return Hlt;
      return Ret;
      map2 (fun r i -> Mov_ri (r, i)) gen_reg gen_imm32;
      map2 (fun a b -> Mov_rr (a, b)) gen_reg gen_reg;
      map3 (fun a b d -> Load (a, b, d)) gen_reg gen_reg gen_disp;
      map3 (fun b d s -> Store (b, d, s)) gen_reg gen_disp gen_reg;
      map3 (fun a b d -> Loadb (a, b, d)) gen_reg gen_reg gen_disp;
      map3 (fun b d s -> Storeb (b, d, s)) gen_reg gen_disp gen_reg;
      map (fun r -> Push r) gen_reg;
      map (fun r -> Pop r) gen_reg;
      map3 (fun a b d -> Lea (a, b, d)) gen_reg gen_reg gen_disp;
      map2 (fun a b -> Add (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Sub (a, b)) gen_reg gen_reg;
      map2 (fun r i -> Add_ri (r, i)) gen_reg gen_disp;
      map2 (fun a b -> Cmp (a, b)) gen_reg gen_reg;
      map2 (fun r i -> Cmp_ri (r, i)) gen_reg gen_disp;
      map2 (fun a b -> And_ (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Or_ (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Xor (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Mul (a, b)) gen_reg gen_reg;
      map2 (fun r i -> Shl (r, i)) gen_reg gen_shift;
      map2 (fun r i -> Shr (r, i)) gen_reg gen_shift;
      map (fun d -> Jmp (Rel d)) gen_rel;
      map (fun d -> Jz (Rel d)) gen_rel;
      map (fun d -> Jnz (Rel d)) gen_rel;
      map (fun d -> Jl (Rel d)) gen_rel;
      map (fun d -> Jge (Rel d)) gen_rel;
      map (fun r -> Jmp_r r) gen_reg;
      map (fun d -> Call (Rel d)) gen_rel;
      map (fun r -> Call_r r) gen_reg;
      map (fun n -> Int n) (Gen.int_range 0 255);
    ]

let arb_instr = make ~print:Isa.Insn.to_string gen_instr

(* --- properties ------------------------------------------------------------ *)

let prop_encode_decode_roundtrip =
  Test.make ~name:"encode/decode roundtrip" ~count:2000 arb_instr (fun insn ->
      let bytes = Isa.Encode.to_string insn in
      String.length bytes = Isa.Insn.size insn
      && match Isa.Decode.of_string bytes 0 with Ok i -> i = insn | Error _ -> false)

let prop_program_roundtrip =
  Test.make ~name:"program layout and sequential decode" ~count:200
    (make Gen.(list_size (int_range 1 40) gen_instr))
    (fun instrs ->
      let prog = List.map (fun i -> Isa.Asm.I i) instrs in
      let a = Isa.Asm.assemble ~origin:0 prog in
      let total = List.fold_left (fun acc i -> acc + Isa.Insn.size i) 0 instrs in
      String.length a.code = total
      &&
      let rec decode_all pos acc =
        if pos >= total then List.rev acc
        else
          match Isa.Decode.of_string a.code pos with
          | Ok i -> decode_all (pos + Isa.Insn.size i) (i :: acc)
          | Error _ -> List.rev acc
      in
      decode_all 0 [] = instrs)

let prop_sign_mask =
  Test.make ~name:"sign32/mask32 agreement" ~count:1000
    (make Gen.(int_range (-0x80000000) 0x7FFFFFFF))
    (fun x ->
      let m = Isa.Encode.mask32 x in
      Isa.Decode.sign32 m = x && Isa.Encode.mask32 m = m)

type tlb_op = Insert of int * int | Invalidate of int | Flush | Lookup of int

let gen_tlb_op =
  Gen.(
    oneof
      [
        map2 (fun v f -> Insert (v, f)) (int_range 0 30) (int_range 1 100);
        map (fun v -> Invalidate v) (int_range 0 30);
        return Flush;
        map (fun v -> Lookup v) (int_range 0 30);
      ])

let prop_tlb_capacity =
  Test.make ~name:"tlb never exceeds capacity; latest insert wins" ~count:500
    (make Gen.(list_size (int_range 1 200) gen_tlb_op))
    (fun ops ->
      let tlb = Hw.Tlb.create ~name:"prop" ~capacity:8 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
          | Insert (v, f) ->
            Hw.Tlb.insert tlb { vpn = v; frame = f; user = true; writable = true; nx = false };
            Hashtbl.replace model v f
          | Invalidate v ->
            Hw.Tlb.invalidate tlb v;
            Hashtbl.remove model v
          | Flush ->
            Hw.Tlb.flush tlb;
            Hashtbl.reset model
          | Lookup v -> ignore (Hw.Tlb.lookup tlb v));
          Hw.Tlb.size tlb <= 8
          &&
          (* anything cached must agree with the model (eviction may drop
             entries, but never corrupt them) *)
          Hashtbl.fold
            (fun v f ok ->
              ok
              &&
              match Hw.Tlb.peek tlb v with
              | Some e -> e.frame = f
              | None -> true)
            model true)
        ops)

(* Differential test of the slot/stamp TLB against a list model of the
   classic replacement queue: fresh inserts (and, under LRU, every hit)
   push the vpn; eviction pops from the front, skipping vpns that are no
   longer cached or that still have a fresher occurrence queued; flush
   empties the queue; invalidate and tamper leave it alone. *)
module Queue_tlb = struct
  type t = {
    cap : int;
    lru : bool;
    mutable table : (int * Hw.Tlb.entry) list;
    mutable queue : int list;  (* front first, stale and duplicate vpns kept *)
    st : Hw.Tlb.stats;
  }

  let create lru cap =
    let st = { Hw.Tlb.hits = 0; misses = 0; flushes = 0; invalidations = 0; evictions = 0 } in
    { cap; lru; table = []; queue = []; st }

  let push t v = t.queue <- t.queue @ [ v ]

  let rec evict t =
    match t.queue with
    | [] -> None
    | v :: rest ->
      t.queue <- rest;
      if List.mem v rest || not (List.mem_assoc v t.table) then evict t
      else begin
        t.table <- List.remove_assoc v t.table;
        t.st.evictions <- t.st.evictions + 1;
        Some v
      end

  let insert t (e : Hw.Tlb.entry) =
    let fresh = not (List.mem_assoc e.vpn t.table) in
    let victim = if fresh && List.length t.table >= t.cap then evict t else None in
    t.table <- (e.vpn, e) :: List.remove_assoc e.vpn t.table;
    if fresh then push t e.vpn;
    victim

  let find t v =
    match List.assoc_opt v t.table with
    | Some e ->
      t.st.hits <- t.st.hits + 1;
      if t.lru then push t v;
      Some e
    | None ->
      t.st.misses <- t.st.misses + 1;
      None

  let note_hits t v n =
    if n > 0 then begin
      t.st.hits <- t.st.hits + n;
      if t.lru then for _ = 1 to n do push t v done
    end

  let invalidate t v =
    if List.mem_assoc v t.table then begin
      t.table <- List.remove_assoc v t.table;
      t.st.invalidations <- t.st.invalidations + 1
    end

  let flush t =
    t.table <- [];
    t.queue <- [];
    t.st.flushes <- t.st.flushes + 1

  let tamper t v frame =
    match List.assoc_opt v t.table with
    | None -> false
    | Some e ->
      t.table <- (v, { e with frame }) :: List.remove_assoc v t.table;
      true

  (* the raw legacy snapshot: the queue verbatim, stale and duplicate vpns
     included *)
  let legacy_state t : Hw.Tlb.state =
    {
      s_entries =
        List.sort (fun (a : Hw.Tlb.entry) b -> compare a.vpn b.vpn) (List.map snd t.table);
      s_fifo = t.queue;
      s_hits = t.st.hits;
      s_misses = t.st.misses;
      s_flushes = t.st.flushes;
      s_invalidations = t.st.invalidations;
      s_evictions = t.st.evictions;
    }
end

type tlb_diff_op =
  | D_insert of int * int
  | D_lookup of int
  | D_find of int
  | D_note_hits of int * int
  | D_invalidate of int
  | D_flush
  | D_tamper of int * int
  | D_roundtrip
  | D_legacy_import

(* small vpns plus multiples of 16, which share index buckets at every
   capacity and so build multi-entry chains *)
let diff_vpns = List.init 12 Fun.id @ List.init 6 (fun k -> 16 * (k + 1))

let gen_diff_op =
  let v = Gen.oneofl diff_vpns in
  Gen.(
    frequency
      [
        (6, map2 (fun v f -> D_insert (v, f)) v (int_range 1 99));
        (4, map (fun v -> D_lookup v) v);
        (4, map (fun v -> D_find v) v);
        (2, map2 (fun v n -> D_note_hits (v, n)) v (int_range 0 3));
        (2, map (fun v -> D_invalidate v) v);
        (1, return D_flush);
        (1, map2 (fun v f -> D_tamper (v, f)) v (int_range 1 99));
        (1, return D_roundtrip);
        (1, return D_legacy_import);
      ])

let show_diff_op = function
  | D_insert (v, f) -> Fmt.str "insert %d->%d" v f
  | D_lookup v -> Fmt.str "lookup %d" v
  | D_find v -> Fmt.str "find %d" v
  | D_note_hits (v, n) -> Fmt.str "note_hits %d x%d" v n
  | D_invalidate v -> Fmt.str "invalidate %d" v
  | D_flush -> "flush"
  | D_tamper (v, f) -> Fmt.str "tamper %d->%d" v f
  | D_roundtrip -> "export/import"
  | D_legacy_import -> "legacy import"

let prop_tlb_matches_queue_model =
  Test.make ~name:"slot/stamp tlb matches the replacement-queue model" ~count:1000
    (make
       ~print:(fun (lru, cap, ops) ->
         Fmt.str "%s cap=%d: %s" (if lru then "lru" else "fifo") cap
           (String.concat "; " (List.map show_diff_op ops)))
       Gen.(triple bool (int_range 1 8) (list_size (int_range 1 120) gen_diff_op)))
    (fun (lru, cap, ops) ->
      let policy = if lru then Hw.Tlb.Lru else Hw.Tlb.Fifo in
      let tlb = Hw.Tlb.create ~policy ~name:"diff" ~capacity:cap () in
      let model = Queue_tlb.create lru cap in
      let entry vpn frame : Hw.Tlb.entry =
        { vpn; frame; user = true; writable = vpn land 1 = 0; nx = false }
      in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | D_insert (v, f) ->
              let before = Hw.Tlb.entries tlb in
              Hw.Tlb.insert tlb (entry v f);
              let gone =
                List.filter_map
                  (fun (e : Hw.Tlb.entry) ->
                    if Hw.Tlb.peek tlb e.vpn = None then Some e.vpn else None)
                  before
              in
              gone = Option.to_list (Queue_tlb.insert model (entry v f))
            | D_lookup v -> Hw.Tlb.lookup tlb v = Queue_tlb.find model v
            | D_find v ->
              (match Hw.Tlb.probe tlb v with -1 -> None | p -> Some (Hw.Tlb.unpack v p))
              = Queue_tlb.find model v
            | D_note_hits (v, n) ->
              Hw.Tlb.note_hits tlb v n;
              Queue_tlb.note_hits model v n;
              true
            | D_invalidate v ->
              Hw.Tlb.invalidate tlb v;
              Queue_tlb.invalidate model v;
              true
            | D_flush ->
              Hw.Tlb.flush tlb;
              Queue_tlb.flush model;
              true
            | D_tamper (v, f) ->
              Hw.Tlb.tamper tlb v (fun e -> { e with frame = f }) = Queue_tlb.tamper model v f
            | D_roundtrip ->
              Hw.Tlb.import tlb (Hw.Tlb.export tlb);
              true
            | D_legacy_import ->
              Hw.Tlb.import tlb (Queue_tlb.legacy_state model);
              true
          in
          agrees
          && Hw.Tlb.stats tlb = model.st
          && Hw.Tlb.size tlb = List.length model.table
          && List.for_all
               (fun v -> Hw.Tlb.peek tlb v = List.assoc_opt v model.table)
               diff_vpns)
        ops)

let prop_signature =
  Test.make ~name:"signature verifies and detects tampering" ~count:300
    (make Gen.(pair (list_size (int_range 1 5) string_small) small_nat))
    (fun (parts, flip) ->
      let s = Kernel.Signature.sign parts in
      Kernel.Signature.verify parts s
      &&
      match parts with
      | [] -> true
      | first :: rest when String.length first > 0 ->
        let i = flip mod String.length first in
        let tampered =
          String.mapi
            (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c)
            first
        in
        not (Kernel.Signature.verify (tampered :: rest) s)
      | _ -> true)

let prop_pipe_fifo =
  Test.make ~name:"pipe preserves byte order and bounds" ~count:300
    (make Gen.(list_size (int_range 1 30) (pair string_small (int_range 1 64))))
    (fun chunks ->
      let pipe = Kernel.Pipe.create ~capacity:128 ~name:"prop" () in
      let written = Buffer.create 64 and read = Buffer.create 64 in
      List.iter
        (fun (s, rd) ->
          let n = Kernel.Pipe.write pipe s in
          Buffer.add_string written (String.sub s 0 n);
          Buffer.add_string read (Kernel.Pipe.read pipe ~max:rd))
        chunks;
      Buffer.add_string read (Kernel.Pipe.drain pipe);
      Kernel.Pipe.level pipe = 0 && Buffer.contents read = Buffer.contents written)

(* Split-page invariant: no sequence of kernel/user data writes can alter
   the code copy. *)
let prop_split_writes_never_touch_code_copy =
  Test.make ~name:"data writes never reach the code copy" ~count:100
    (make Gen.(list_size (int_range 1 30) (pair (int_range 0 4000) (int_range 0 255))))
    (fun writes ->
      let k = Kernel.Os.create ~protection:(Split_memory.protection ()) () in
      let image =
        Kernel.Image.build ~name:"prop"
          ~code:(fun ~lbl:_ -> Isa.Asm.[ L "main"; I Nop ] @ Guest.sys_exit 0)
          ~entry:"main" ()
      in
      let p = Kernel.Os.spawn k image in
      let base = Kernel.Layout.heap_base in
      List.iter
        (fun (off, v) -> Kernel.Os.copy_to_user k p (base + off) (String.make 1 (Char.chr v)))
        writes;
      match Kernel.Aspace.pte p.aspace (base / 4096) with
      | Some ({ split = Some s; _ } : Kernel.Pte.t) ->
        Hw.Phys.to_string (Kernel.Os.phys k) ~frame:s.code_frame
        = String.make 4096 '\000'
      | _ -> false)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_encode_decode_roundtrip;
      prop_program_roundtrip;
      prop_sign_mask;
      prop_tlb_capacity;
      prop_tlb_matches_queue_model;
      prop_signature;
      prop_pipe_fifo;
      prop_split_writes_never_touch_code_copy;
    ]

(* Differential test of CPU semantics: a random straight-line register
   program is executed both by the simulator and by a direct OCaml
   interpretation of the ISA's documented semantics; the full 32-bit
   result must agree. *)

let gen_dest_reg =
  (* never write esp: the result-dump epilogue needs a valid stack *)
  Gen.oneofl (List.filter (fun r -> r <> Isa.Reg.ESP) Isa.Reg.all)

let reg_instr_gen : Isa.Insn.t Gen.t =
  let open Gen in
  let open Isa.Insn in
  oneof
    [
      map2 (fun r i -> Mov_ri (r, i)) gen_dest_reg gen_imm32;
      map2 (fun a b -> Mov_rr (a, b)) gen_dest_reg gen_reg;
      map2 (fun a b -> Add (a, b)) gen_dest_reg gen_reg;
      map2 (fun a b -> Sub (a, b)) gen_dest_reg gen_reg;
      map2 (fun r i -> Add_ri (r, i)) gen_dest_reg gen_disp;
      map2 (fun a b -> And_ (a, b)) gen_dest_reg gen_reg;
      map2 (fun a b -> Or_ (a, b)) gen_dest_reg gen_reg;
      map2 (fun a b -> Xor (a, b)) gen_dest_reg gen_reg;
      map2 (fun a b -> Mul (a, b)) gen_dest_reg gen_reg;
      map2 (fun r i -> Shl (r, i)) gen_dest_reg (Gen.int_range 0 31);
      map2 (fun r i -> Shr (r, i)) gen_dest_reg (Gen.int_range 0 31);
      map3 (fun d b i -> Lea (d, b, i)) gen_dest_reg gen_reg gen_disp;
    ]

let reference_interp instrs =
  let open Isa.Insn in
  let mask = Isa.Encode.mask32 in
  let regs = Array.make 8 0 in
  regs.(Isa.Reg.to_int Isa.Reg.ESP) <- Kernel.Layout.initial_esp;
  let g r = regs.(Isa.Reg.to_int r) in
  let s r v = regs.(Isa.Reg.to_int r) <- mask v in
  List.iter
    (fun insn ->
      match insn with
      | Mov_ri (d, i) -> s d i
      | Mov_rr (d, src) -> s d (g src)
      | Add (d, src) -> s d (g d + g src)
      | Sub (d, src) -> s d (g d - g src)
      | Add_ri (d, i) -> s d (g d + i)
      | And_ (d, src) -> s d (g d land g src)
      | Or_ (d, src) -> s d (g d lor g src)
      | Xor (d, src) -> s d (g d lxor g src)
      | Mul (d, src) -> s d (g d * g src)
      | Shl (d, i) -> s d (g d lsl (i land 31))
      | Shr (d, i) -> s d (g d lsr (i land 31))
      | Lea (d, b, i) -> s d (g b + i)
      | _ -> assert false)
    instrs;
  regs

let prop_cpu_differential =
  Test.make ~name:"cpu agrees with reference semantics" ~count:150
    (make Gen.(list_size (int_range 1 25) reg_instr_gen))
    (fun instrs ->
      (* keep esp valid for the simulator's stack (not used by these ops) *)
      let expected = reference_interp instrs in
      (* the guest writes all 8 registers to a data buffer and prints it *)
      let image =
        Kernel.Image.build ~name:"diff"
          ~data:(fun ~lbl:_ -> Isa.Asm.[ L "out"; Space 32 ])
          ~code:(fun ~lbl ->
            let open Isa.Asm in
            (L "main" :: List.map (fun i -> I i) instrs)
            @ List.concat
                (List.mapi
                   (fun idx r ->
                     if r = Isa.Reg.ESP || r = Isa.Reg.EBP then []
                     else
                       [
                         I (Push EBP);
                         I (Mov_ri (EBP, lbl "out"));
                         I (Store (EBP, idx * 4, r));
                         I (Pop EBP);
                       ])
                   Isa.Reg.all)
            @ Guest.sys_write_imm ~buf:(lbl "out") ~len:32 ()
            @ Guest.sys_exit 0)
          ~entry:"main" ()
      in
      let k = Kernel.Os.create ~protection:(Split_memory.protection ()) () in
      let p = Kernel.Os.spawn k image in
      ignore (Kernel.Os.run k);
      let dump = Kernel.Os.read_stdout k p in
      String.length dump = 32
      && List.for_all
           (fun r ->
             r = Isa.Reg.ESP || r = Isa.Reg.EBP
             ||
             let idx = Isa.Reg.to_int r in
             let b i = Char.code dump.[(idx * 4) + i] in
             let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
             v = expected.(idx))
           Isa.Reg.all)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_cpu_differential ]

(* The decoder is total: any byte string either decodes or reports a
   structured error — it never raises. *)
let prop_decoder_total =
  Test.make ~name:"decoder never raises on junk" ~count:500
    (make Gen.(string_size (int_range 1 16)))
    (fun junk ->
      match Isa.Decode.of_string junk 0 with Ok _ | Error _ -> true)

(* The whole simulator is deterministic: running the same workload twice
   yields identical cycle counts and event logs. *)
let prop_determinism =
  Test.make ~name:"simulation is deterministic" ~count:10
    (make Gen.(int_range 3 20))
    (fun iters ->
      let run () =
        let k = Kernel.Os.create ~protection:(Split_memory.protection ()) () in
        let ping = Kernel.Os.spawn k (Workload.Guests.ctxsw_ping ~iters ()) in
        let pong = Kernel.Os.spawn k (Workload.Guests.ctxsw_pong ()) in
        Kernel.Os.connect k ping pong;
        ignore (Kernel.Os.run k);
        ((Kernel.Os.cost k).cycles, List.length (Kernel.Event_log.to_list (Kernel.Os.log k)))
      in
      run () = run ())

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest [ prop_decoder_total; prop_determinism ]

(* --- page-granular kernel copies vs the byte-at-a-time loops ------------- *)

(* The loops [Machine.copy_from_user], [copy_to_user] and [read_cstring]
   ran before they shared one page walker: a page lookup per chunk (per
   byte for C strings) and one [Phys.read8]/[write8] per byte. *)
module Per_byte = struct
  module M = Kernel.Machine

  let copy_from_user (t : M.t) p addr len =
    let buf = Buffer.create len in
    let remaining = ref len in
    let addr = ref addr in
    while !remaining > 0 do
      let vpn = !addr / t.page_size in
      let off = !addr mod t.page_size in
      let chunk = min !remaining (t.page_size - off) in
      let pte = M.ensure_mapped_for_kernel t p vpn ~write:false in
      let frame = Kernel.Pte.data_frame pte in
      for i = 0 to chunk - 1 do
        Buffer.add_char buf (Char.chr (Hw.Phys.read8 t.phys ~frame ~off:(off + i)))
      done;
      remaining := !remaining - chunk;
      addr := !addr + chunk
    done;
    Buffer.contents buf

  let copy_to_user (t : M.t) p addr s =
    let len = String.length s in
    let pos = ref 0 in
    while !pos < len do
      let a = addr + !pos in
      let vpn = a / t.page_size in
      let off = a mod t.page_size in
      let chunk = min (len - !pos) (t.page_size - off) in
      let pte = M.ensure_mapped_for_kernel t p vpn ~write:true in
      let frame = Kernel.Pte.data_frame pte in
      for i = 0 to chunk - 1 do
        Hw.Phys.write8 t.phys ~frame ~off:(off + i) (Char.code s.[!pos + i])
      done;
      pos := !pos + chunk
    done

  let read_cstring (t : M.t) p addr ~max =
    let buf = Buffer.create 16 in
    let rec go i =
      if i >= max then Buffer.contents buf
      else
        let vpn = (addr + i) / t.page_size in
        let off = (addr + i) mod t.page_size in
        let pte = M.ensure_mapped_for_kernel t p vpn ~write:false in
        let b = Hw.Phys.read8 t.phys ~frame:(Kernel.Pte.data_frame pte) ~off in
        if b = 0 then Buffer.contents buf
        else begin
          Buffer.add_char buf (Char.chr b);
          go (i + 1)
        end
    in
    go 0
end

type copy_mode = Split | Cow of { into_child : bool } | Ecc of (int * int * int) list

type copy_op = Read | Write | Cstring

type copy_case = {
  mode : copy_mode;
  tail_unmapped : bool;  (* window's last page lies past the heap region *)
  premapped : bool list;  (* per window page: mapped before the copy *)
  op : copy_op;
  start : int;  (* offset of the copy into the 3-page window *)
  len : int;
  nul_at : int option;  (* window offset of a NUL for read_cstring *)
}

let pp_copy_case c =
  Fmt.str "{mode=%s; tail_unmapped=%b; premapped=[%s]; op=%s; start=%d; len=%d; nul_at=%s}"
    (match c.mode with
    | Split -> "split"
    | Cow { into_child } -> Fmt.str "cow(child=%b)" into_child
    | Ecc flips ->
      Fmt.str "ecc[%s]"
        (String.concat ";" (List.map (fun (pg, o, b) -> Fmt.str "%d:%d:%d" pg o b) flips)))
    c.tail_unmapped
    (String.concat ";" (List.map string_of_bool c.premapped))
    (match c.op with Read -> "read" | Write -> "write" | Cstring -> "cstring")
    c.start c.len
    (match c.nul_at with None -> "-" | Some n -> string_of_int n)

let gen_copy_case =
  let open Gen in
  let page = 4096 in
  let flip = triple (int_range 0 2) (int_range 0 (page - 1)) (int_range 0 7) in
  let mode =
    oneof
      [
        return Split;
        map (fun into_child -> Cow { into_child }) bool;
        map (fun fl -> Ecc fl) (list_size (int_range 1 24) flip);
      ]
  in
  let len =
    oneof [ return 0; int_range 1 64; int_range 1 page; int_range (2 * page) (3 * page) ]
  in
  mode >>= fun mode ->
  bool >>= fun tail_unmapped ->
  list_repeat 3 bool >>= fun premapped ->
  oneofl [ Read; Write; Cstring ] >>= fun op ->
  int_range 0 ((3 * page) - 1) >>= fun start ->
  len >>= fun len ->
  opt (oneof [ int_range 0 64; int_range 0 ((3 * page) - 1) ]) >>= fun nul_rel ->
  let nul_at = Option.map (fun r -> (start + r) mod (3 * page)) nul_rel in
  return { mode; tail_unmapped; premapped; op; start; len; nul_at }

type copy_observation = {
  outcome : (string, string) result;
  frames : string list;  (* every frame, raw (flips included) *)
  ptes : (int * int * int * bool * bool) list;  (* window PTEs of both procs *)
  watch : int list;  (* write-watch firings, oldest first *)
  corrections : int;
  ecc_addrs : int list;  (* ECC hook addresses, oldest first *)
  code_copies_kept : bool;  (* no split page's code copy changed *)
}

(* Build the case's machine, run one copy through [impl] and observe
   everything the copy can change. *)
let observe_copy c (impl : [ `Paged | `Per_byte ]) =
  let module M = Kernel.Machine in
  let page = 4096 in
  let k =
    Kernel.Os.create ~frames:256 ~bbcache:false ~protection:(Split_memory.protection ()) ()
  in
  let image =
    Kernel.Image.build ~name:"copy"
      ~code:(fun ~lbl:_ -> Isa.Asm.[ L "main"; I Nop ] @ Guest.sys_exit 0)
      ~entry:"main" ()
  in
  let p = Kernel.Os.spawn k image in
  let m = Kernel.Os.machine k in
  let phys = m.phys in
  let base =
    if c.tail_unmapped then Kernel.Layout.heap_limit - (2 * page) else Kernel.Layout.heap_base
  in
  let vpn0 = base / page in
  let in_region i = not (c.tail_unmapped && i = 2) in
  List.iteri
    (fun i pre ->
      if pre && in_region i then begin
        let pte = M.ensure_mapped_for_kernel m p (vpn0 + i) ~write:true in
        let frame = Kernel.Pte.data_frame pte in
        for o = 0 to page - 1 do
          Hw.Phys.write8 phys ~frame ~off:o (1 + (((o * 7) + i) mod 255))
        done
      end)
    c.premapped;
  Option.iter
    (fun n ->
      match Kernel.Aspace.pte p.aspace (vpn0 + (n / page)) with
      | Some pte -> Hw.Phys.write8 phys ~frame:(Kernel.Pte.data_frame pte) ~off:(n mod page) 0
      | None -> ())
    c.nul_at;
  let target =
    match c.mode with
    | Cow { into_child } ->
      let child = M.do_fork m p in
      if into_child then Option.get (M.proc m child) else p
    | Split | Ecc _ -> p
  in
  let ecc_addrs = ref [] in
  (match c.mode with
  | Ecc flips ->
    Hw.Phys.enable_ecc phys;
    Hw.Phys.set_ecc_hook phys (Some (fun a -> ecc_addrs := a :: !ecc_addrs));
    List.iter
      (fun (pg, off, bit) ->
        match Kernel.Aspace.pte p.aspace (vpn0 + pg) with
        | Some pte -> Hw.Phys.flip_bit phys ~frame:(Kernel.Pte.data_frame pte) ~off ~bit
        | None -> ())
      flips
  | Split | Cow _ -> ());
  let watch = ref [] in
  Hw.Phys.set_write_watch phys (Some (fun f -> watch := f :: !watch));
  for frame = 0 to Hw.Phys.frame_count phys - 1 do
    Hw.Phys.watch_frame phys ~frame
  done;
  let window_ptes () =
    List.concat_map
      (fun (q : Kernel.Proc.t) ->
        List.filter_map
          (fun i ->
            Option.map
              (fun (pte : Kernel.Pte.t) ->
                (q.pid, Kernel.Pte.code_frame pte, Kernel.Pte.data_frame pte, pte.cow, pte.writable))
              (Kernel.Aspace.pte q.aspace (vpn0 + i)))
          [ 0; 1; 2 ])
      (M.procs m)
  in
  let code_before =
    List.filter_map
      (fun (_, code, data, _, _) ->
        if code <> data then Some (code, Hw.Phys.to_string phys ~frame:code) else None)
      (window_ptes ())
  in
  let addr = base + c.start in
  let payload = String.init c.len (fun i -> Char.chr (((i * 13) + 5) land 0xFF)) in
  let outcome =
    try
      match (c.op, impl) with
      | Read, `Paged -> Ok (M.copy_from_user m target addr c.len)
      | Read, `Per_byte -> Ok (Per_byte.copy_from_user m target addr c.len)
      | Write, `Paged -> Ok (M.copy_to_user m target addr payload; "")
      | Write, `Per_byte -> Ok (Per_byte.copy_to_user m target addr payload; "")
      | Cstring, `Paged -> Ok (M.read_cstring m target addr ~max:c.len)
      | Cstring, `Per_byte -> Ok (Per_byte.read_cstring m target addr ~max:c.len)
    with e -> Error (Printexc.to_string e)
  in
  {
    outcome;
    frames = List.init (Hw.Phys.frame_count phys) (fun frame -> Hw.Phys.to_string phys ~frame);
    ptes = window_ptes ();
    watch = List.rev !watch;
    corrections = Hw.Phys.ecc_corrections phys;
    ecc_addrs = List.rev !ecc_addrs;
    code_copies_kept =
      List.for_all
        (fun (frame, bytes) -> Hw.Phys.to_string phys ~frame = bytes)
        code_before;
  }

let prop_paged_copies_match_per_byte =
  Test.make ~name:"page-granular kernel copies match the per-byte loops" ~count:300
    (make ~print:pp_copy_case gen_copy_case)
    (fun c ->
      let paged = observe_copy c `Paged and per_byte = observe_copy c `Per_byte in
      paged.code_copies_kept && paged = per_byte)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_paged_copies_match_per_byte ]

(* --- lazy physical memory vs an eager reference -------------------------- *)

(* [Phys] as it was before frames became lazy: a private buffer per frame
   from the start, a watched flag per frame, an ECC shadow copied whole
   from the primaries, and the watch fired by every mutation of a watched
   frame except the two fault-injection backdoors. *)
module Eager_phys = struct
  type t = {
    frames : Bytes.t array;
    watched : bool array;
    mutable shadow : Bytes.t array option;
    mutable corrections : int;
    mutable events : [ `Watch of int | `Ecc of int ] list;  (* newest first *)
  }

  let page = 64

  let create n =
    {
      frames = Array.init n (fun _ -> Bytes.make page '\000');
      watched = Array.make n false;
      shadow = None;
      corrections = 0;
      events = [];
    }

  let note_write t f =
    if t.watched.(f) then begin
      t.watched.(f) <- false;
      t.events <- `Watch f :: t.events
    end

  (* a store of [s] at [off]: primary, then the shadow *)
  let store t f off s =
    note_write t f;
    Bytes.blit_string s 0 t.frames.(f) off (String.length s);
    Option.iter (fun sh -> Bytes.blit_string s 0 sh.(f) off (String.length s)) t.shadow

  let read t f off len =
    Option.iter
      (fun sh ->
        for i = off to off + len - 1 do
          let good = Bytes.get sh.(f) i in
          if Bytes.get t.frames.(f) i <> good then begin
            Bytes.set t.frames.(f) i good;
            t.corrections <- t.corrections + 1;
            t.events <- `Ecc ((f * page) + i) :: t.events
          end
        done)
      t.shadow;
    Bytes.sub_string t.frames.(f) off len

  let copy t ~src ~dst =
    note_write t dst;
    Bytes.blit t.frames.(src) 0 t.frames.(dst) 0 page;
    Option.iter (fun sh -> Bytes.blit sh.(src) 0 sh.(dst) 0 page) t.shadow
end

type phys_op =
  | P_write8 of int * int * int
  | P_write32 of int * int * int
  | P_fill of int * int
  | P_blit_string of int * int * string
  | P_blit_bytes of int * string
  | P_copy of int * int
  | P_watch of int
  | P_flip of int * int * int
  | P_enable_ecc
  | P_shadow_write8 of int * int * int
  | P_read8 of int * int
  | P_read_into of int * int * int

let show_phys_op = function
  | P_write8 (f, o, v) -> Fmt.str "write8 %d+%d=%d" f o v
  | P_write32 (f, o, v) -> Fmt.str "write32 %d+%d=%#x" f o v
  | P_fill (f, v) -> Fmt.str "fill %d %d" f v
  | P_blit_string (f, o, s) -> Fmt.str "blit_string %d+%d %S" f o s
  | P_blit_bytes (f, s) -> Fmt.str "blit_bytes %d %S" f s
  | P_copy (s, d) -> Fmt.str "copy %d->%d" s d
  | P_watch f -> Fmt.str "watch %d" f
  | P_flip (f, o, b) -> Fmt.str "flip %d+%d bit %d" f o b
  | P_enable_ecc -> "enable_ecc"
  | P_shadow_write8 (f, o, v) -> Fmt.str "shadow_write8 %d+%d=%d" f o v
  | P_read8 (f, o) -> Fmt.str "read8 %d+%d" f o
  | P_read_into (f, o, n) -> Fmt.str "read_into %d+%d len %d" f o n

let phys_frames = 4

let gen_phys_op =
  let page = Eager_phys.page in
  Gen.(
    let frame = int_bound (phys_frames - 1) in
    let off = int_bound (page - 1) in
    (* zero bytes often, so stores of zeros into zero frames happen *)
    let byte = frequency [ (1, return 0); (2, int_bound 255) ] in
    let range = off >>= fun o -> map (fun n -> (o, n)) (int_bound (page - o)) in
    let payload n = string_size ~gen:(oneofl [ '\000'; 'a'; '\255' ]) (return n) in
    frequency
      [
        (4, map3 (fun f o v -> P_write8 (f, o, v)) frame off byte);
        ( 2,
          map3
            (fun f o v -> P_write32 (f, o, v))
            frame (int_bound (page - 4))
            (oneof [ return 0; int_bound 0xFFFF_FFFF ]) );
        (2, map2 (fun f v -> P_fill (f, v)) frame byte);
        ( 2,
          frame >>= fun f ->
          range >>= fun (o, n) -> map (fun s -> P_blit_string (f, o, s)) (payload n) );
        ( 1,
          frame >>= fun f ->
          int_bound page >>= fun n -> map (fun s -> P_blit_bytes (f, s)) (payload n) );
        (2, map2 (fun s d -> P_copy (s, d)) frame frame);
        (3, map (fun f -> P_watch f) frame);
        (2, map3 (fun f o b -> P_flip (f, o, b)) frame off (int_bound 7));
        (1, return P_enable_ecc);
        (1, map3 (fun f o v -> P_shadow_write8 (f, o, v)) frame off byte);
        (3, map2 (fun f o -> P_read8 (f, o)) frame off);
        (2, frame >>= fun f -> map (fun (o, n) -> P_read_into (f, o, n)) range);
      ])

let prop_lazy_phys_matches_eager =
  Test.make ~name:"lazy physical memory matches an eager reference" ~count:1000
    (make
       ~print:(fun ops -> String.concat "; " (List.map show_phys_op ops))
       Gen.(list_size (int_range 1 60) gen_phys_op))
    (fun ops ->
      let page = Eager_phys.page in
      let phys = Hw.Phys.create ~page_size:page ~frames:phys_frames () in
      let model = Eager_phys.create phys_frames in
      let events = ref [] in
      Hw.Phys.set_write_watch phys (Some (fun f -> events := `Watch f :: !events));
      let step op =
        match op with
        | P_write8 (f, o, v) ->
          Hw.Phys.write8 phys ~frame:f ~off:o v;
          Eager_phys.store model f o (String.make 1 (Char.chr v));
          true
        | P_write32 (f, o, v) ->
          Hw.Phys.write32 phys ~frame:f ~off:o v;
          let b = Bytes.create 4 in
          Bytes.set_int32_le b 0 (Int32.of_int v);
          Eager_phys.store model f o (Bytes.to_string b);
          true
        | P_fill (f, v) ->
          Hw.Phys.fill phys ~frame:f v;
          Eager_phys.store model f 0 (String.make page (Char.chr v));
          true
        | P_blit_string (f, o, s) ->
          Hw.Phys.blit_from_string phys ~frame:f ~off:o s;
          Eager_phys.store model f o s;
          true
        | P_blit_bytes (f, s) ->
          let src = Bytes.of_string (s ^ "tail") in
          Hw.Phys.blit_from_bytes phys ~frame:f src ~len:(String.length s);
          Eager_phys.store model f 0 s;
          true
        | P_copy (src, dst) ->
          Hw.Phys.copy_frame phys ~src ~dst;
          Eager_phys.copy model ~src ~dst;
          true
        | P_watch f ->
          Hw.Phys.watch_frame phys ~frame:f;
          model.watched.(f) <- true;
          true
        | P_flip (f, o, b) ->
          Hw.Phys.flip_bit phys ~frame:f ~off:o ~bit:b;
          let p = model.frames.(f) in
          Bytes.set p o (Char.chr (Char.code (Bytes.get p o) lxor (1 lsl b)));
          true
        | P_enable_ecc ->
          Hw.Phys.enable_ecc phys;
          Hw.Phys.set_ecc_hook phys (Some (fun a -> events := `Ecc a :: !events));
          model.shadow <- Some (Array.map Bytes.copy model.frames);
          model.corrections <- 0;
          true
        | P_shadow_write8 (f, o, v) ->
          Hw.Phys.ecc_shadow_write8 phys ~frame:f ~off:o v;
          Option.iter (fun sh -> Bytes.set sh.(f) o (Char.chr v)) model.shadow;
          true
        | P_read8 (f, o) ->
          Hw.Phys.read8 phys ~frame:f ~off:o = Char.code (Eager_phys.read model f o 1).[0]
        | P_read_into (f, o, n) ->
          let dst = Bytes.make (n + 2) '?' in
          Hw.Phys.read_into phys ~frame:f ~off:o ~len:n dst ~pos:1;
          Bytes.sub_string dst 1 n = Eager_phys.read model f o n
      in
      let agrees () =
        !events = model.events
        && Hw.Phys.ecc_corrections phys = model.corrections
        && List.for_all
             (fun f ->
               let bytes = Hw.Phys.to_string phys ~frame:f in
               let zero = Hw.Phys.is_zero_frame phys ~frame:f in
               bytes = Bytes.to_string model.frames.(f)
               && zero = Bytes.for_all (( = ) '\000') model.frames.(f)
               (* a store that leaked into a shared zero page shows here *)
               && ((not zero) || bytes = String.make page '\000'))
             (List.init phys_frames Fun.id)
      in
      List.for_all (fun op -> step op && agrees ()) ops)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_lazy_phys_matches_eager ]
