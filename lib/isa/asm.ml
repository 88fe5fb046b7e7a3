type item =
  | I of Insn.t
  | L of string
  | Bytes of string
  | Word32 of int
  | Words of int list
  | Space of int
  | Align of int

type program = item list

exception Duplicate_label of string
exception Undefined_label of string

let item_size ~at = function
  | I insn -> Insn.size insn
  | L _ -> 0
  | Bytes s -> String.length s
  | Word32 _ -> 4
  | Words ws -> 4 * List.length ws
  | Space n -> n
  | Align a ->
    let r = at mod a in
    if r = 0 then 0 else a - r

let layout ?(origin = 0) items =
  let labels = Hashtbl.create 16 in
  let addr = ref origin in
  let place item =
    (match item with
    | L l ->
      if Hashtbl.mem labels l then raise (Duplicate_label l);
      Hashtbl.add labels l !addr
    | I _ | Bytes _ | Word32 _ | Words _ | Space _ | Align _ -> ());
    addr := !addr + item_size ~at:!addr item
  in
  List.iter place items;
  (labels, !addr - origin)

let resolve_target labels ~next = function
  | Insn.Rel _ as t -> t
  | Insn.Lbl l -> (
    match Hashtbl.find_opt labels l with
    | Some dest -> Insn.Rel (dest - next)
    | None -> raise (Undefined_label l))

let resolve labels ~addr insn =
  let next = addr + Insn.size insn in
  let t = resolve_target labels ~next in
  match (insn : Insn.t) with
  | Jmp x -> Insn.Jmp (t x)
  | Jz x -> Insn.Jz (t x)
  | Jnz x -> Insn.Jnz (t x)
  | Jl x -> Insn.Jl (t x)
  | Jge x -> Insn.Jge (t x)
  | Call x -> Insn.Call (t x)
  | Nop | Hlt | Mov_ri _ | Mov_rr _ | Load _ | Store _ | Loadb _ | Storeb _
  | Push _ | Pop _ | Lea _ | Add _ | Sub _ | Add_ri _ | Cmp _ | Cmp_ri _
  | And_ _ | Or_ _ | Xor _ | Mul _ | Shl _ | Shr _ | Jmp_r _ | Call_r _ | Ret
  | Int _ ->
    insn

type assembled = { code : string; labels : (string, int) Hashtbl.t; origin : int }

let assemble ?(origin = 0) items =
  let labels, _ = layout ~origin items in
  let buf = Buffer.create 256 in
  let addr = ref origin in
  let emit item =
    let size = item_size ~at:!addr item in
    (match item with
    | I insn -> Encode.add buf (resolve labels ~addr:!addr insn)
    | L _ -> ()
    | Bytes s -> Buffer.add_string buf s
    | Word32 w ->
      let w = Encode.mask32 w in
      Buffer.add_char buf (Char.chr (w land 0xFF));
      Buffer.add_char buf (Char.chr ((w lsr 8) land 0xFF));
      Buffer.add_char buf (Char.chr ((w lsr 16) land 0xFF));
      Buffer.add_char buf (Char.chr ((w lsr 24) land 0xFF))
    | Words ws -> List.iter (fun w ->
        let w = Encode.mask32 w in
        Buffer.add_char buf (Char.chr (w land 0xFF));
        Buffer.add_char buf (Char.chr ((w lsr 8) land 0xFF));
        Buffer.add_char buf (Char.chr ((w lsr 16) land 0xFF));
        Buffer.add_char buf (Char.chr ((w lsr 24) land 0xFF))) ws
    | Space n -> Buffer.add_string buf (String.make n '\000')
    | Align _ -> Buffer.add_string buf (String.make size '\000'));
    addr := !addr + size
  in
  List.iter emit items;
  { code = Buffer.contents buf; labels; origin }

let label asm l =
  match Hashtbl.find_opt asm.labels l with
  | Some a -> a
  | None -> raise (Undefined_label l)
