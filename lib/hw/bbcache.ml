(* Decoded basic-block cache, keyed by *physical* address of the block's
   first byte. Frame keying (instead of eip × process) buys three
   properties at once: blocks are shared by every mapping of a frame (all
   forks of a guest, split-memory code views), copy-on-write is correct for
   free (the writer moves to a fresh frame, which is a fresh key), and a
   tampered translation is reproduced exactly (a wrong-pfn TLB entry sends
   execution to some frame, and the block is decoded from precisely the
   bytes the per-instruction interpreter would have fetched there).

   Invalidation is generation-based: each frame carries a generation
   counter, bumped by the {!Phys} write watch whenever a frame that backs
   at least one block is mutated — guest self-modifying stores, the
   split-memory kernel's gadget writes ([Mmu.kernel_code_write] lands in
   [Phys.write8]), demand-paging blits into recycled frames, fork/COW
   copies, and snapshot-restore refills all funnel through the same hook.
   Stale blocks are detected lazily on lookup (the stored generation no
   longer matches) and rebuilt from the current bytes. Pagetable remapping
   and [invlpg] need no hook at all: dispatch re-translates the first byte
   of every instruction, so a changed mapping simply resolves to a
   different frame and therefore a different key.

   Blocks are decoded with {!Isa.Decode.of_string} over the frame's bytes,
   so construction is bounded by the page edge by construction: an
   instruction whose operands would extend past the end of the frame
   decodes as [Truncated] and ends the block before it — the trailing
   straddler (or an undecodable first byte) leaves an *empty* block, which
   tells the dispatcher to fall back to the exact byte-at-a-time
   interpreter path for that one instruction. *)

type block = {
  b_pa0 : int;  (* packed paddr (frame * page_size + off) of byte 0 *)
  b_frame : int;
  b_gen : int;  (* frame generation the bytes were decoded under *)
  insns : Isa.Insn.t array;
  sizes : int array;  (* sizes.(i) = encoded size of insns.(i) *)
  offs : int array;  (* offs.(i) = byte offset of insns.(i) from b_pa0 *)
  n : int;  (* 0 = negative block: dispatch must fall back for this pc *)
}

type stats = {
  mutable hits : int;
  mutable misses : int;  (* lookups that had to build (cold or stale) *)
  mutable invalidations : int;  (* write-watch generation bumps *)
  mutable blocks_built : int;
  mutable insns_built : int;  (* total decoded instructions over all builds *)
}

type t = {
  phys : Phys.t;
  blocks : (int, block) Hashtbl.t;
  gen : int array;  (* per-frame generation *)
  stats : stats;
  max_block : int;  (* instruction-count cap per block *)
  max_blocks : int;  (* table size at which the cache resets wholesale *)
  scratch : Bytes.t;  (* page-sized frame snapshot buffer, reused per build *)
  decoded : Isa.Insn.t array;  (* [max_block] slots, reused per build *)
}

let create ?(max_block = 128) ?(max_blocks = 65_536) ~phys () =
  let t =
    {
      phys;
      blocks = Hashtbl.create 1024;
      gen = Array.make (Phys.frame_count phys) 0;
      stats = { hits = 0; misses = 0; invalidations = 0; blocks_built = 0; insns_built = 0 };
      max_block;
      max_blocks;
      scratch = Bytes.create (Phys.page_size phys);
      decoded = Array.make max_block Isa.Insn.Nop;
    }
  in
  Phys.set_write_watch phys
    (Some
       (fun frame ->
         t.gen.(frame) <- t.gen.(frame) + 1;
         t.stats.invalidations <- t.stats.invalidations + 1));
  t

let none = { b_pa0 = -1; b_frame = 0; b_gen = 0; insns = [||]; sizes = [||]; offs = [||]; n = 0 }
let stats t = t.stats
let generation t frame = t.gen.(frame)

(* Drop every cached block. Generations are kept (monotonic per machine
   lifetime) so blocks cached before the clear can never validate again. *)
let clear t = Hashtbl.reset t.blocks

(* Decode into [t.decoded] from byte [off] of the frame image [bytes];
   returns how many instructions the block holds. *)
let rec collect t bytes off n =
  if n >= t.max_block then n
  else
    match Isa.Decode.of_string bytes off with
    | Error _ ->
      (* Bad opcode, bad register, or operands running off the page edge:
         end the block before the undecodable instruction — dispatch falls
         back to the exact interpreter when it reaches this pc. *)
      n
    | Ok insn ->
      t.decoded.(n) <- insn;
      if Isa.Insn.is_block_end insn then n + 1
      else collect t bytes (off + Isa.Insn.size insn) (n + 1)

let build t pa0 =
  let frame = Phys.frame_of_addr t.phys pa0 in
  let off0 = Phys.off_of_addr t.phys pa0 in
  (* Raw frame snapshot into the reused scratch buffer: no ECC scrub, no
     cache traffic, no per-build string — construction is side-effect-free,
     all architectural fetch effects are replayed at dispatch time. The
     unsafe view is sound because [Decode.of_string] does not retain it. *)
  Phys.blit_to_bytes t.phys ~frame t.scratch;
  let n = collect t (Bytes.unsafe_to_string t.scratch) off0 0 in
  let insns = Array.sub t.decoded 0 n in
  let sizes = Array.map Isa.Insn.size insns in
  let offs = Array.make (max n 1) 0 in
  for i = 1 to n - 1 do
    offs.(i) <- offs.(i - 1) + sizes.(i - 1)
  done;
  t.stats.blocks_built <- t.stats.blocks_built + 1;
  t.stats.insns_built <- t.stats.insns_built + n;
  let b = { b_pa0 = pa0; b_frame = frame; b_gen = t.gen.(frame); insns; sizes; offs; n } in
  if Hashtbl.length t.blocks >= t.max_blocks then clear t;
  Hashtbl.replace t.blocks pa0 b;
  Phys.watch_frame t.phys ~frame;
  b

let lookup t pa0 =
  match Hashtbl.find t.blocks pa0 with
  | b ->
    if b.b_gen = t.gen.(b.b_frame) then begin
      t.stats.hits <- t.stats.hits + 1;
      b
    end
    else begin
      t.stats.misses <- t.stats.misses + 1;
      build t pa0
    end
  | exception Not_found ->
    t.stats.misses <- t.stats.misses + 1;
    build t pa0

(* True when [b] no longer describes the bytes at its frame — a store hit
   the frame since the block was decoded (self-modifying code). Dispatch
   checks this before every instruction of a block, not just at entry. *)
let stale t b = b.b_gen <> t.gen.(b.b_frame)

let insns_per_block t =
  if t.stats.blocks_built = 0 then 0.0
  else float_of_int t.stats.insns_built /. float_of_int t.stats.blocks_built
