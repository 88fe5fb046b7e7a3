type source = Zero | Image_bytes of { base : int; bytes : string }

type region = {
  lo : int;
  mutable hi : int;
  kind : Pte.kind;
  mutable writable : bool;
  mutable execable : bool;
  source : source;
  mutable share : string option;
      (* content digest of the backing segment when this region's read-only
         pages may join the machine-wide shared-frame registry (loader
         COW). Derived perf-only state: not serialized — recomputed from
         the region source by [Machine.rebuild_shares] after a restore. *)
}

type t = {
  page_size : int;
  ptes : (int, Pte.t) Hashtbl.t;
  mutable regions : region list;
  mutable brk : int;
  mutable mmap_cursor : int;
  walker : int -> int;
  code_walker : int -> int;
  data_walker : int -> int;
}

(* The hardware page walks (packed PTEs, [Hw.Mmu.no_pte] when unmapped):
   one [Hashtbl.find] and int arithmetic, no [Some], no record. *)
let walk_ptes ptes vpn =
  match Hashtbl.find ptes vpn with
  | p -> Pte.packed p
  | exception Not_found -> Hw.Mmu.no_pte

(* Hardware-split views (§3.3.1): the code pagetable maps split pages to
   their code copy, the data pagetable to their data copy; everything else
   is shared. Both views are user-accessible — with dedicated hardware
   there is nothing to trap. *)
let walk_code_ptes ptes vpn =
  match Hashtbl.find ptes vpn with
  | p -> Pte.packed_at p ~frame:(Pte.code_frame p) ~user:true
  | exception Not_found -> Hw.Mmu.no_pte

let walk_data_ptes ptes vpn =
  match Hashtbl.find ptes vpn with
  | p -> Pte.packed_at p ~frame:(Pte.data_frame p) ~user:true
  | exception Not_found -> Hw.Mmu.no_pte

(* The walk closures are built once here, so a context switch loads the
   pagetable register without allocating. *)
let create ~page_size =
  let ptes = Hashtbl.create 64 in
  {
    page_size;
    ptes;
    regions = [];
    brk = Layout.heap_base;
    mmap_cursor = Layout.mmap_base;
    walker = walk_ptes ptes;
    code_walker = walk_code_ptes ptes;
    data_walker = walk_data_ptes ptes;
  }

let page_size t = t.page_size
let add_region t r = t.regions <- r :: t.regions
let regions t = t.regions
let find_region t vpn = List.find_opt (fun r -> vpn >= r.lo && vpn < r.hi) t.regions

let pte t vpn = Hashtbl.find_opt t.ptes vpn
let set_pte t (p : Pte.t) = Hashtbl.replace t.ptes p.vpn p
let remove_pte t vpn = Hashtbl.remove t.ptes vpn
let iter_ptes t f = Hashtbl.iter (fun _ p -> f p) t.ptes
let mapped_count t = Hashtbl.length t.ptes

let walk t vpn = t.walker vpn

(* Contents a freshly demand-mapped page should start with: the matching
   slice of the backing image segment (zero-padded), or zeros. The blit
   variant writes into a caller-owned scratch buffer so the demand-paging
   hot path allocates nothing per fault. *)
let blit_page_content t region vpn buf =
  if Bytes.length buf < t.page_size then invalid_arg "Aspace.blit_page_content: buf too small";
  Bytes.fill buf 0 t.page_size '\000';
  match region.source with
  | Zero -> ()
  | Image_bytes { base; bytes } ->
    let page_start = (vpn * t.page_size) - base in
    let src_from = max 0 page_start in
    let dst_from = src_from - page_start in
    let len = min (String.length bytes - src_from) (t.page_size - dst_from) in
    if len > 0 then Bytes.blit_string bytes src_from buf dst_from len

let page_content t region vpn =
  let buf = Bytes.create t.page_size in
  blit_page_content t region vpn buf;
  Bytes.to_string buf

let vpn_of_addr t addr = addr / t.page_size
let page_base t vpn = vpn * t.page_size
