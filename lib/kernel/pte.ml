type kind = Code | Rodata | Data | Bss | Heap | Stack | Mixed | Lib | Mmap

let kind_name = function
  | Code -> "code"
  | Rodata -> "rodata"
  | Data -> "data"
  | Bss -> "bss"
  | Heap -> "heap"
  | Stack -> "stack"
  | Mixed -> "mixed"
  | Lib -> "lib"
  | Mmap -> "mmap"

type split = {
  code_frame : int;
  mutable data_frame : int;
  mutable locked_to_data : bool;
}

type t = {
  vpn : int;
  kind : kind;
  mutable frame : int;
  mutable present : bool;
  mutable writable : bool;
  mutable user : bool;
  mutable nx : bool;
  mutable cow : bool;
  mutable orig_writable : bool;
  mutable split : split option;
}

let make ~vpn ~kind ~frame ~writable =
  {
    vpn;
    kind;
    frame;
    present = true;
    writable;
    user = true;
    nx = false;
    cow = false;
    orig_writable = writable;
    split = None;
  }

let to_hw t : Hw.Mmu.hw_pte =
  { frame = t.frame; present = t.present; writable = t.writable; user = t.user; nx = t.nx }

(* The packed walk result ({!Hw.Mmu.pack_pte}) for this PTE's permission
   bits over [frame]: a walk returns an int, not a record. *)
let packed_at t ~frame ~user =
  Hw.Tlb.pack ~frame ~user ~writable:t.writable ~nx:t.nx
  lor if t.present then Hw.Tlb.present_bit else 0

let packed t = packed_at t ~frame:t.frame ~user:t.user

let is_split t = t.split <> None

let restrict t = t.user <- false
let unrestrict t = t.user <- true

let data_frame t = match t.split with Some s -> s.data_frame | None -> t.frame

let code_frame t =
  match t.split with
  | Some s -> if s.locked_to_data then s.data_frame else s.code_frame
  | None -> t.frame

let pp ppf t =
  Fmt.pf ppf "vpn=0x%x %s frame=%d%s%s%s%s%s" t.vpn (kind_name t.kind) t.frame
    (if t.user then "" else " supervisor")
    (if t.writable then " rw" else " ro")
    (if t.nx then " nx" else "")
    (if t.cow then " cow" else "")
    (match t.split with
    | None -> ""
    | Some s ->
      Fmt.str " split(code=%d,data=%d%s)" s.code_frame s.data_frame
        (if s.locked_to_data then ",locked" else ""))
