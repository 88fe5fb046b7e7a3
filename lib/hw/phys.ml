(* Optional ECC model (lib/inject): a shadow copy of every frame plays the
   role of the SECDED check bits. Writes update both copies; reads compare
   against the shadow and correct-on-read (bumping [corrections] and firing
   [hook]), so a single injected bit flip behaves like a correctable DRAM
   error: invisible to the program, visible to the machine. [flip_bit] is
   the only writer that bypasses the shadow. *)
type ecc = {
  shadow : Bytes.t array;
  mutable corrections : int;
  mutable hook : (int -> unit) option;
}

type t = {
  page_size : int;
  shift : int;  (* log2 page_size: packed paddrs split with lsr/land *)
  mask : int;
  (* Lazy frames: every frame starts out aliasing [zero], one shared
     all-zero page that is never written, and gets a buffer of its own on
     its first store. Building a machine and scanning it for zero frames
     therefore cost O(frames touched), not O(frames). *)
  zero : Bytes.t;
  frames : Bytes.t array;
  mutable ecc : ecc option;
  (* One flag byte per frame, two bits:
     - [watched_bit] (lib/hw Bbcache write watch): set by [watch_frame]
       when derived state (a decoded block) was built from the frame's
       bytes; the next mutation clears it and fires [write_watch] with the
       frame, so the hook fires once per watched frame per dirtying burst.
     - [zero_bit]: the frame is known all-zero, primary and shadow alike.
       It may still alias [zero]. Invariant: no zero bit => the primary
       and (under ECC) the shadow are both private buffers.
     Every mutation path tests the whole byte before it stores, so a frame
     that is neither watched nor known-zero (all data traffic after the
     first store) pays a single byte compare per store; anything else
     takes the out-of-line [prepare_write]. [flip_bit] and
     [ecc_shadow_write8] bypass the watch by design: they model DRAM bit
     errors, which only the ECC machinery may observe — consumers of the
     watch must not cache derived state from frames while ECC is
     enabled. *)
  flags : Bytes.t;
  mutable write_watch : (int -> unit) option;
}

let watched_bit = 1
let zero_bit = 2

let create ?(page_size = 4096) ~frames () =
  if frames <= 0 then invalid_arg "Phys.create: frames must be positive";
  if page_size <= 0 || page_size land (page_size - 1) <> 0 then
    invalid_arg "Phys.create: page size must be a power of two";
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  let zero = Bytes.make page_size '\000' in
  {
    page_size;
    shift = log2 page_size;
    mask = page_size - 1;
    zero;
    frames = Array.make frames zero;
    ecc = None;
    flags = Bytes.make frames (Char.chr zero_bit);
    write_watch = None;
  }

let set_write_watch t hook = t.write_watch <- hook

let flag t frame = Char.code (Bytes.unsafe_get t.flags frame)
let set_flag t frame f = Bytes.unsafe_set t.flags frame (Char.unsafe_chr f)

let watch_frame t ~frame =
  if frame < 0 || frame >= Array.length t.frames then
    invalid_arg (Fmt.str "Phys.watch_frame: frame %d out of range" frame);
  set_flag t frame (flag t frame lor watched_bit)

let fire_watch t frame = match t.write_watch with None -> () | Some h -> h frame

(* Give a frame its own primary and (under ECC) shadow buffers if it still
   shares [zero]. Callers clear the zero bit right after. *)
let own t frame =
  if t.frames.(frame) == t.zero then t.frames.(frame) <- Bytes.make t.page_size '\000';
  match t.ecc with
  | Some e when e.shadow.(frame) == t.zero ->
    e.shadow.(frame) <- Bytes.make t.page_size '\000'
  | _ -> ()

(* The slow path of every mutation, taken when the frame's flag byte is
   non-zero; callers have already bounds-checked [frame]. The watch hook
   fires here, just before the caller's store rather than after it: its
   only consumer (Bbcache) merely bumps a generation counter, which does
   not read the frame. *)
let[@inline never] prepare_write t frame =
  let f = flag t frame in
  if f land zero_bit <> 0 then own t frame;
  set_flag t frame 0;
  if f land watched_bit <> 0 then fire_watch t frame

(* The test every mutation makes before its store. *)
let[@inline] before_store t frame =
  if Bytes.unsafe_get t.flags frame <> '\000' then prepare_write t frame

let page_size t = t.page_size
let page_shift t = t.shift
let frame_count t = Array.length t.frames

let check t frame off len =
  if frame < 0 || frame >= Array.length t.frames then
    invalid_arg (Fmt.str "Phys: frame %d out of range" frame);
  if off < 0 || off + len > t.page_size then
    invalid_arg (Fmt.str "Phys: offset %d+%d out of page" off len)

(* Correct-on-read: repair any primary/shadow mismatch in [off, off+len)
   from the shadow before the caller reads the primary bytes. *)
let scrub t frame off len =
  match t.ecc with
  | None -> ()
  | Some e ->
    let p = t.frames.(frame) and s = e.shadow.(frame) in
    for i = off to off + len - 1 do
      let good = Bytes.unsafe_get s i in
      if Bytes.unsafe_get p i <> good then begin
        Bytes.unsafe_set p i good;
        e.corrections <- e.corrections + 1;
        match e.hook with None -> () | Some h -> h ((frame lsl t.shift) + i)
      end
    done

let read8 t ~frame ~off =
  check t frame off 1;
  scrub t frame off 1;
  Char.code (Bytes.get t.frames.(frame) off)

let write8 t ~frame ~off v =
  check t frame off 1;
  before_store t frame;
  let c = Char.chr (v land 0xFF) in
  Bytes.set t.frames.(frame) off c;
  match t.ecc with None -> () | Some e -> Bytes.set e.shadow.(frame) off c

let read32 t ~frame ~off =
  check t frame off 4;
  scrub t frame off 4;
  Int32.to_int (Bytes.get_int32_le t.frames.(frame) off) land 0xFFFF_FFFF

let write32 t ~frame ~off v =
  check t frame off 4;
  before_store t frame;
  Bytes.set_int32_le t.frames.(frame) off (Int32.of_int v);
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.blit t.frames.(frame) off e.shadow.(frame) off 4

(* Zero fills keep the frame's buffers: [Frame_alloc.take] zeroes every
   frame it hands out, and a recycled frame is usually written again. *)
let fill t ~frame byte =
  check t frame 0 t.page_size;
  let f = flag t frame and c = Char.chr (byte land 0xFF) in
  if c = '\000' && f land zero_bit <> 0 then begin
    (* already zero: no store, but a watched frame fires as for any fill *)
    if f land watched_bit <> 0 then begin
      set_flag t frame zero_bit;
      fire_watch t frame
    end
  end
  else begin
    if f <> 0 then prepare_write t frame;
    Bytes.fill t.frames.(frame) 0 t.page_size c;
    (match t.ecc with None -> () | Some e -> Bytes.fill e.shadow.(frame) 0 t.page_size c);
    if c = '\000' then set_flag t frame zero_bit
  end

(* Range read: the same bounds check, then correct-on-read over the whole
   range in ascending address order (corrections and hook firings exactly
   as a [read8] per byte would make them), then one blit. *)
let read_into t ~frame ~off ~len dst ~pos =
  check t frame off len;
  scrub t frame off len;
  Bytes.blit t.frames.(frame) off dst pos len

let blit_from_string t ~frame ~off ?(pos = 0) ?len s =
  let len = match len with Some n -> n | None -> String.length s - pos in
  check t frame off len;
  before_store t frame;
  Bytes.blit_string s pos t.frames.(frame) off len;
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.blit_string s pos e.shadow.(frame) off len

let to_string t ~frame =
  check t frame 0 t.page_size;
  Bytes.to_string t.frames.(frame)

let is_zero_frame t ~frame =
  check t frame 0 t.page_size;
  flag t frame land zero_bit <> 0
  ||
  let b = t.frames.(frame) in
  let n = t.page_size in
  let words = n - (n land 7) in
  let rec go_words i =
    i >= words || (Bytes.get_int64_ne b i = 0L && go_words (i + 8))
  in
  let rec go_bytes i = i >= n || (Bytes.unsafe_get b i = '\000' && go_bytes (i + 1)) in
  go_words 0 && go_bytes words

(* Eight flag bytes per step: a run of frames that all fail the
   selection costs one 64-bit load and compare, so a scan over mostly
   untouched memory is O(frames / 8 + frames selected). [f] may change
   the flags of the frame it is given. *)
let iter_frames t ~mask ~skip f =
  let n = Bytes.length t.flags in
  let bytes8 b = Int64.mul (Int64.of_int b) 0x0101010101010101L in
  let mask8 = bytes8 mask and skip8 = bytes8 skip in
  let visit lo hi =
    for frame = lo to hi - 1 do
      if flag t frame land mask <> skip then f frame
    done
  in
  let i = ref 0 in
  while !i + 8 <= n do
    if Int64.logand (Bytes.get_int64_le t.flags !i) mask8 <> skip8 then visit !i (!i + 8);
    i := !i + 8
  done;
  visit !i n

let blit_to_bytes t ~frame dst =
  check t frame 0 t.page_size;
  if Bytes.length dst < t.page_size then invalid_arg "Phys.blit_to_bytes: dst too small";
  Bytes.blit t.frames.(frame) 0 dst 0 t.page_size

let blit_from_bytes t ~frame src ~len =
  check t frame 0 len;
  if len > Bytes.length src then invalid_arg "Phys.blit_from_bytes: len > src";
  before_store t frame;
  Bytes.blit src 0 t.frames.(frame) 0 len;
  match t.ecc with None -> () | Some e -> Bytes.blit src 0 e.shadow.(frame) 0 len

(* The shadow copies the shadow, not the primary: a frame copied while it
   carries an uncorrected flip carries the pending correction along with it
   (the raw codeword was copied, error and all). *)
let copy_frame t ~src ~dst =
  check t src 0 t.page_size;
  check t dst 0 t.page_size;
  before_store t dst;
  Bytes.blit t.frames.(src) 0 t.frames.(dst) 0 t.page_size;
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.blit e.shadow.(src) 0 e.shadow.(dst) 0 t.page_size

(* Known-zero frames share [zero] as their shadow too. *)
let enable_ecc t =
  let shadow =
    Array.mapi (fun i b -> if flag t i land zero_bit <> 0 then t.zero else Bytes.copy b) t.frames
  in
  t.ecc <- Some { shadow; corrections = 0; hook = None }

let disable_ecc t = t.ecc <- None
let ecc_enabled t = t.ecc <> None

let set_ecc_hook t hook =
  match t.ecc with
  | None -> invalid_arg "Phys.set_ecc_hook: ECC not enabled"
  | Some e -> e.hook <- hook

let ecc_corrections t = match t.ecc with None -> 0 | Some e -> e.corrections

(* The fault-injection backdoors below store without [before_store]: they
   give a known-zero frame its own buffers and drop the zero bit, but
   leave the watched bit alone and never fire the watch. *)
let unzero t frame =
  let f = flag t frame in
  if f land zero_bit <> 0 then begin
    own t frame;
    set_flag t frame (f land lnot zero_bit)
  end

let flip_bit t ~frame ~off ~bit =
  check t frame off 1;
  if bit < 0 || bit > 7 then invalid_arg "Phys.flip_bit: bit out of range";
  unzero t frame;
  let v = Char.code (Bytes.get t.frames.(frame) off) lxor (1 lsl bit) in
  Bytes.set t.frames.(frame) off (Char.chr v)

let ecc_shadow_write8 t ~frame ~off v =
  check t frame off 1;
  match t.ecc with
  | None -> ()
  | Some e ->
    unzero t frame;
    Bytes.set e.shadow.(frame) off (Char.chr (v land 0xFF))

let addr t ~frame ~off = (frame lsl t.shift) + off
let frame_of_addr t a = a lsr t.shift
let off_of_addr t a = a land t.mask

(* Physical-address accessors for the MMU fast path: callers that already
   hold a packed paddr (frame * page_size + off) skip the (frame, off)
   tuple round-trip. *)
let read8_at t pa = read8 t ~frame:(frame_of_addr t pa) ~off:(off_of_addr t pa)
let write8_at t pa v = write8 t ~frame:(frame_of_addr t pa) ~off:(off_of_addr t pa) v
let read32_at t pa = read32 t ~frame:(frame_of_addr t pa) ~off:(off_of_addr t pa)
let write32_at t pa v = write32 t ~frame:(frame_of_addr t pa) ~off:(off_of_addr t pa) v
