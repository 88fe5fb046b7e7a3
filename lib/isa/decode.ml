type error = Bad_opcode of int | Bad_register of int | Truncated

let sign32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* Decoding pulls bytes one at a time through [fetch] so that an instruction
   straddling a page boundary performs a fetch-access on both pages, exactly
   as a hardware prefetcher would. [fetch] may raise (e.g. a page fault).

   The decoder is generic in its byte source: [get src addr] reads one byte
   of [src], and both fetchers below are closed functions, so decoding
   allocates only its result — no per-byte closures or continuations. The
   byte order is part of the contract (a page fault reports the first byte
   that faults): opcode, then register operands in encoding order, then
   immediates high byte first. *)

exception Bad_reg of int

let u8 get src pc off = get src (pc + off) land 0xFF

let u32 get src pc off =
  let b3 = u8 get src pc (off + 3) in
  let b2 = u8 get src pc (off + 2) in
  let b1 = u8 get src pc (off + 1) in
  let b0 = u8 get src pc off in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let s32 get src pc off = sign32 (u32 get src pc off)

let reg get src pc off =
  let v = u8 get src pc off in
  match Reg.of_int v with Some r -> r | None -> raise_notrace (Bad_reg v)

let decode_with get src pc =
  try
    match u8 get src pc 0 with
    | 0x90 -> Ok Insn.Nop
    | 0xF4 -> Ok Insn.Hlt
    | 0x01 ->
      let d = reg get src pc 1 in
      Ok (Insn.Mov_ri (d, u32 get src pc 2))
    | 0x02 ->
      let d = reg get src pc 1 in
      let s = reg get src pc 2 in
      Ok (Insn.Mov_rr (d, s))
    | 0x03 ->
      let d = reg get src pc 1 in
      let b = reg get src pc 2 in
      Ok (Insn.Load (d, b, s32 get src pc 3))
    | 0x04 ->
      let b = reg get src pc 1 in
      let s = reg get src pc 6 in
      Ok (Insn.Store (b, s32 get src pc 2, s))
    | 0x05 ->
      let d = reg get src pc 1 in
      let b = reg get src pc 2 in
      Ok (Insn.Loadb (d, b, s32 get src pc 3))
    | 0x06 ->
      let b = reg get src pc 1 in
      let s = reg get src pc 6 in
      Ok (Insn.Storeb (b, s32 get src pc 2, s))
    | 0x07 -> Ok (Insn.Push (reg get src pc 1))
    | 0x08 -> Ok (Insn.Pop (reg get src pc 1))
    | 0x09 ->
      let d = reg get src pc 1 in
      let b = reg get src pc 2 in
      Ok (Insn.Lea (d, b, s32 get src pc 3))
    | 0x10 ->
      let d = reg get src pc 1 in
      let s = reg get src pc 2 in
      Ok (Insn.Add (d, s))
    | 0x11 ->
      let d = reg get src pc 1 in
      let s = reg get src pc 2 in
      Ok (Insn.Sub (d, s))
    | 0x12 ->
      let d = reg get src pc 1 in
      Ok (Insn.Add_ri (d, s32 get src pc 2))
    | 0x13 ->
      let a = reg get src pc 1 in
      let b = reg get src pc 2 in
      Ok (Insn.Cmp (a, b))
    | 0x14 ->
      let a = reg get src pc 1 in
      Ok (Insn.Cmp_ri (a, s32 get src pc 2))
    | 0x15 ->
      let d = reg get src pc 1 in
      let s = reg get src pc 2 in
      Ok (Insn.And_ (d, s))
    | 0x16 ->
      let d = reg get src pc 1 in
      let s = reg get src pc 2 in
      Ok (Insn.Or_ (d, s))
    | 0x17 ->
      let d = reg get src pc 1 in
      let s = reg get src pc 2 in
      Ok (Insn.Xor (d, s))
    | 0x18 ->
      let d = reg get src pc 1 in
      let s = reg get src pc 2 in
      Ok (Insn.Mul (d, s))
    | 0x19 ->
      let d = reg get src pc 1 in
      Ok (Insn.Shl (d, u8 get src pc 2))
    | 0x1A ->
      let d = reg get src pc 1 in
      Ok (Insn.Shr (d, u8 get src pc 2))
    | 0x20 -> Ok (Insn.Jmp (Rel (s32 get src pc 1)))
    | 0x21 -> Ok (Insn.Jz (Rel (s32 get src pc 1)))
    | 0x22 -> Ok (Insn.Jnz (Rel (s32 get src pc 1)))
    | 0x23 -> Ok (Insn.Jl (Rel (s32 get src pc 1)))
    | 0x24 -> Ok (Insn.Jge (Rel (s32 get src pc 1)))
    | 0x28 -> Ok (Insn.Jmp_r (reg get src pc 1))
    | 0x30 -> Ok (Insn.Call (Rel (s32 get src pc 1)))
    | 0x31 -> Ok (Insn.Call_r (reg get src pc 1))
    | 0x32 -> Ok Insn.Ret
    | 0xCD -> Ok (Insn.Int (u8 get src pc 1))
    | op -> Error (Bad_opcode op)
  with Bad_reg v -> Error (Bad_register v)

let decode ~fetch pc = decode_with (fun fetch a -> fetch a) fetch pc

(* A gadget scanner walks decode across every byte offset of an image, so
   this must be total: an instruction whose operands would extend past the
   end of the string is reported as [Truncated], never silently decoded
   from phantom zero bytes and never an out-of-bounds access. *)
exception Past_end

let of_string s pos =
  if pos < 0 || pos >= String.length s then Error Truncated
  else
    try
      decode_with
        (fun s i ->
          if i < String.length s then Char.code (String.unsafe_get s i)
          else raise_notrace Past_end)
        s pos
    with Past_end -> Error Truncated
