(* Packed two-level x86-style pagetables stored in simulated physical
   memory — the fidelity study behind the object-model pagetables the rest
   of the kernel uses. It demonstrates that everything the split-memory
   patch needs fits in real 32-bit pagetable structures:

   - the split marker lives in an available PTE bit (the paper: "a
     previously unused bit in the pagetable entry is used to signify that
     the page is being split", §5.1);
   - the partner frame needs no storage: the two copies are allocated
     side-by-side (even frame = code copy, odd = data copy) and found by
     frame arithmetic;
   - restricting/unrestricting a page and flipping it between its copies
     are single 32-bit stores, exactly as in the Linux patch.

   Entry format (both PDE and PTE, little-endian 32-bit):
     bit 0  present        bit 1  writable      bit 2  user
     bit 8  nx (simulated PAE-style)            bit 9  split marker
     bit 10 data-selected (split page currently pointing at its data copy)
     bits 12..31 frame number *)

let p_present = 0x001
let p_writable = 0x002
let p_user = 0x004
let p_nx = 0x100
let p_split = 0x200
let p_data_sel = 0x400

let entries_per_table = 1024

type t = { phys : Hw.Phys.t; alloc : Frame_alloc.t; root : int }

let create phys alloc = { phys; alloc; root = Frame_alloc.alloc alloc }
let root t = t.root

let encode ~frame ~writable ~user ~nx ~split ~data_sel =
  p_present
  lor (if writable then p_writable else 0)
  lor (if user then p_user else 0)
  lor (if nx then p_nx else 0)
  lor (if split then p_split else 0)
  lor (if data_sel then p_data_sel else 0)
  lor (frame lsl 12)

let frame_of e = e lsr 12
let present e = e land p_present <> 0
let writable e = e land p_writable <> 0
let user e = e land p_user <> 0
let nx e = e land p_nx <> 0
let split e = e land p_split <> 0
let data_selected e = e land p_data_sel <> 0

let dir_index vpn = vpn lsr 10
let table_index vpn = vpn land (entries_per_table - 1)

let read_entry t ~frame ~idx = Hw.Phys.read32 t.phys ~frame ~off:(idx * 4)
let write_entry t ~frame ~idx v = Hw.Phys.write32 t.phys ~frame ~off:(idx * 4) v

let table_frame t vpn ~create_missing =
  let pde = read_entry t ~frame:t.root ~idx:(dir_index vpn) in
  if present pde then Some (frame_of pde)
  else if not create_missing then None
  else begin
    let tf = Frame_alloc.alloc t.alloc in
    write_entry t ~frame:t.root ~idx:(dir_index vpn)
      (encode ~frame:tf ~writable:true ~user:true ~nx:false ~split:false ~data_sel:false);
    Some tf
  end

let entry t vpn =
  match table_frame t vpn ~create_missing:false with
  | None -> None
  | Some tf ->
    let e = read_entry t ~frame:tf ~idx:(table_index vpn) in
    if present e then Some e else None

let set_entry t vpn e =
  match table_frame t vpn ~create_missing:true with
  | None -> assert false
  | Some tf -> write_entry t ~frame:tf ~idx:(table_index vpn) e

let map t ~vpn ~frame ~writable ~user ?(nx = false) () =
  set_entry t vpn (encode ~frame ~writable ~user ~nx ~split:false ~data_sel:false)

let unmap t vpn =
  match table_frame t vpn ~create_missing:false with
  | None -> ()
  | Some tf -> write_entry t ~frame:tf ~idx:(table_index vpn) 0

let update t vpn f =
  match entry t vpn with None -> () | Some e -> set_entry t vpn (f e)

(* Split the page per the paper's recipe: allocate a side-by-side pair,
   copy the contents into both, mark the entry split + supervisor, and
   point it at the code (even) copy. Returns (code_frame, data_frame). *)
let split_page t vpn =
  match entry t vpn with
  | None -> invalid_arg "Hw_pagetable.split_page: not mapped"
  | Some e when split e -> (frame_of e land lnot 1, frame_of e lor 1)
  | Some e ->
    let code, data = Frame_alloc.alloc_pair t.alloc in
    Hw.Phys.copy_frame t.phys ~src:(frame_of e) ~dst:code;
    Hw.Phys.copy_frame t.phys ~src:(frame_of e) ~dst:data;
    Frame_alloc.decref t.alloc (frame_of e);
    set_entry t vpn
      (encode ~frame:code ~writable:(writable e) ~user:false ~nx:(nx e) ~split:true
         ~data_sel:false);
    (code, data)

(* Algorithm-1 primitives as single packed stores. *)
let point_at_code t vpn =
  update t vpn (fun e -> encode ~frame:(frame_of e land lnot 1) ~writable:(writable e)
    ~user:(user e) ~nx:(nx e) ~split:(split e) ~data_sel:false)

let point_at_data t vpn =
  update t vpn (fun e -> encode ~frame:(frame_of e lor 1) ~writable:(writable e)
    ~user:(user e) ~nx:(nx e) ~split:(split e) ~data_sel:true)

let restrict t vpn = update t vpn (fun e -> e land lnot p_user)
let unrestrict t vpn = update t vpn (fun e -> e lor p_user)

(* What the hardware page walker sees: two dependent reads from simulated
   physical memory, then the permission bits. *)
let walk t vpn =
  match entry t vpn with
  | None -> Hw.Mmu.no_pte
  | Some e ->
    Hw.Tlb.pack ~frame:(frame_of e) ~user:(user e) ~writable:(writable e) ~nx:(nx e)
    lor Hw.Tlb.present_bit

let free t =
  for idx = 0 to entries_per_table - 1 do
    let pde = read_entry t ~frame:t.root ~idx in
    if present pde then begin
      let tf = frame_of pde in
      for pidx = 0 to entries_per_table - 1 do
        let e = read_entry t ~frame:tf ~idx:pidx in
        if present e then
          if split e then begin
            Frame_alloc.decref t.alloc (frame_of e land lnot 1);
            Frame_alloc.decref t.alloc (frame_of e lor 1)
          end
          else Frame_alloc.decref t.alloc (frame_of e)
      done;
      Frame_alloc.decref t.alloc tf
    end
  done;
  Frame_alloc.decref t.alloc t.root
