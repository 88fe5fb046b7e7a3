type entry = { vpn : int; frame : int; user : bool; writable : bool; nx : bool }

(* A packed entry: the frame number above four flag bits. The hardware
   page walk ({!Mmu}) returns the same word with [present_bit] added, so a
   fill stores the walk result as is. *)
let user_bit = 1
let writable_bit = 2
let nx_bit = 4
let present_bit = 8
let no_entry = -1

let pack ~frame ~user ~writable ~nx =
  (frame lsl 4)
  lor (if user then user_bit else 0)
  lor (if writable then writable_bit else 0)
  lor if nx then nx_bit else 0

let frame_of p = p lsr 4

let unpack vpn p =
  {
    vpn;
    frame = frame_of p;
    user = p land user_bit <> 0;
    writable = p land writable_bit <> 0;
    nx = p land nx_bit <> 0;
  }

type policy = Fifo | Lru

let policy_name = function Fifo -> "fifo" | Lru -> "lru"

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  mutable invalidations : int;
  mutable evictions : int;
}

(* Fixed slot arrays; a slot is live while [vpns.(s) >= 0] and holds its
   packed entry in [ents.(s)]. A fresh fill stamps its slot with the next
   [clock] value, and under [Lru] every hit re-stamps it, so the victim —
   the live slot with the smallest stamp — is the vpn whose latest push
   would sit at the front of the classic replacement queue. The vpn ->
   slot index is a chained hash of int arrays ([heads] per [vpn land
   hmask] bucket, [next] per slot): hits, misses and fills cost one short
   bucket walk, nothing allocates, and every store is an unbarriered int
   store. [next] also chains the slots freed by [invalidate], from [free]. *)
type t = {
  name : string;
  capacity : int;
  policy : policy;
  vpns : int array;
  ents : int array;
  stamps : int array;
  heads : int array;
  next : int array;
  hmask : int;
  mutable free : int;
  mutable used : int;  (* slots at or above [used] have never been filled *)
  mutable live : int;
  mutable clock : int;
  stats : stats;
}

let create ?(policy = Fifo) ~name ~capacity () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  let rec pow2 n = if n >= 4 * capacity then n else pow2 (2 * n) in
  {
    name;
    capacity;
    policy;
    vpns = Array.make capacity (-1);
    ents = Array.make capacity no_entry;
    stamps = Array.make capacity 0;
    heads = Array.make (pow2 1) (-1);
    next = Array.make capacity (-1);
    hmask = pow2 1 - 1;
    free = -1;
    used = 0;
    live = 0;
    clock = 0;
    stats = { hits = 0; misses = 0; flushes = 0; invalidations = 0; evictions = 0 };
  }

let name t = t.name
let capacity t = t.capacity
let policy t = t.policy
let size t = t.live
let stats t = t.stats

let rec chase t vpn s =
  if s < 0 || Array.unsafe_get t.vpns s = vpn then s else chase t vpn (Array.unsafe_get t.next s)

(* The slot holding [vpn], or -1. *)
let slot t vpn = if vpn < 0 then -1 else chase t vpn (Array.unsafe_get t.heads (vpn land t.hmask))

let stamp t s =
  t.stamps.(s) <- t.clock;
  t.clock <- t.clock + 1

(* The MMU's lookup: the packed entry, or [no_entry] on a miss — no box,
   no exception. Under [Lru] a hit re-stamps its slot. *)
let probe t vpn =
  match slot t vpn with
  | -1 ->
    t.stats.misses <- t.stats.misses + 1;
    no_entry
  | s ->
    t.stats.hits <- t.stats.hits + 1;
    if t.policy = Lru then stamp t s;
    Array.unsafe_get t.ents s

let lookup t vpn = match probe t vpn with -1 -> None | p -> Some (unpack vpn p)

(* Bulk hit accounting for the block-dispatch fast path: the caller has
   already proven the next [n] lookups of [vpn] would all hit (the entry is
   resident and nothing can evict it in between), so fold them into one
   call. Observably identical to [n] consecutive [probe]s: the hit counter
   advances by [n] and, under LRU, the slot ends up with the newest stamp. *)
let note_hits t vpn n =
  if n > 0 then begin
    t.stats.hits <- t.stats.hits + n;
    if t.policy = Lru then
      let s = slot t vpn in
      if s >= 0 then stamp t s
  end

let peek t vpn = match slot t vpn with -1 -> None | s -> Some (unpack vpn t.ents.(s))

(* The slot with the smallest stamp; only called when every slot is live. *)
let rec victim t s best =
  if s = t.capacity then best
  else victim t (s + 1) (if t.stamps.(s) < t.stamps.(best) then s else best)

let rec unlink t s p = if t.next.(p) = s then t.next.(p) <- t.next.(s) else unlink t s t.next.(p)

(* Unlink live slot [s] from its bucket and mark it dead. *)
let release t s =
  let h = t.vpns.(s) land t.hmask in
  if t.heads.(h) = s then t.heads.(h) <- t.next.(s) else unlink t s t.heads.(h);
  t.vpns.(s) <- -1;
  t.live <- t.live - 1

(* Store packed entry [p] for [vpn]: the MMU's allocation-free fill. *)
let fill t vpn p =
  let s = slot t vpn in
  if s >= 0 then t.ents.(s) <- p
  else begin
    let s =
      if t.live = t.capacity then begin
        t.stats.evictions <- t.stats.evictions + 1;
        let s = victim t 1 0 in
        release t s;
        s
      end
      else if t.free >= 0 then begin
        let s = t.free in
        t.free <- t.next.(s);
        s
      end
      else begin
        t.used <- t.used + 1;
        t.used - 1
      end
    in
    let h = vpn land t.hmask in
    t.vpns.(s) <- vpn;
    t.ents.(s) <- p;
    t.next.(s) <- t.heads.(h);
    t.heads.(h) <- s;
    t.live <- t.live + 1;
    stamp t s
  end

let insert t (e : entry) =
  if e.vpn < 0 then invalid_arg "Tlb.insert: negative vpn";
  if e.frame < 0 then invalid_arg "Tlb.insert: negative frame";
  fill t e.vpn (pack ~frame:e.frame ~user:e.user ~writable:e.writable ~nx:e.nx)

let live_slots t = List.filter (fun s -> t.vpns.(s) >= 0) (List.init t.used Fun.id)

(* Fault-injection surface (lib/inject): enumerate and mutate live entries
   without touching statistics or stamps — a tampered entry must age
   exactly like the original would have. *)
let entries t =
  List.map (fun s -> unpack t.vpns.(s) t.ents.(s)) (live_slots t)
  |> List.sort (fun a b -> compare a.vpn b.vpn)

let tamper t vpn f =
  match slot t vpn with
  | -1 -> false
  | s ->
    let e = f (unpack vpn t.ents.(s)) in
    if e.frame < 0 then invalid_arg "Tlb.tamper: negative frame";
    t.ents.(s) <- pack ~frame:e.frame ~user:e.user ~writable:e.writable ~nx:e.nx;
    true

let invalidate t vpn =
  let s = slot t vpn in
  if s >= 0 then begin
    release t s;
    t.next.(s) <- t.free;
    t.free <- s;
    t.stats.invalidations <- t.stats.invalidations + 1
  end

let clear t =
  for s = 0 to t.used - 1 do
    if t.vpns.(s) >= 0 then t.heads.(t.vpns.(s) land t.hmask) <- -1
  done;
  Array.fill t.vpns 0 t.used (-1);
  t.used <- 0;
  t.free <- -1;
  t.live <- 0

let flush t =
  clear t;
  t.stats.flushes <- t.stats.flushes + 1

(* Snapshot state. [s_fifo] lists the live vpns oldest stamp first — the
   replacement queue with its stale and superseded occurrences dropped.
   Entries are sorted by vpn so logically identical TLBs export
   identically whatever their slot history. *)
type state = {
  s_entries : entry list;
  s_fifo : int list;
  s_hits : int;
  s_misses : int;
  s_flushes : int;
  s_invalidations : int;
  s_evictions : int;
}

let export t =
  let by_age = List.sort (fun a b -> compare t.stamps.(a) t.stamps.(b)) (live_slots t) in
  {
    s_entries = entries t;
    s_fifo = List.map (fun s -> t.vpns.(s)) by_age;
    s_hits = t.stats.hits;
    s_misses = t.stats.misses;
    s_flushes = t.stats.flushes;
    s_invalidations = t.stats.invalidations;
    s_evictions = t.stats.evictions;
  }

(* [s_fifo] may also be a raw legacy queue with stale or duplicate vpns:
   each live vpn takes the age of its last occurrence, which is the
   position the classic queue would have evicted it from. *)
let import t (s : state) =
  clear t;
  List.iter (insert t) s.s_entries;
  if t.live <> List.length s.s_entries then invalid_arg "Tlb.import: bad entry list";
  Array.fill t.stamps 0 t.capacity (-1);
  List.iteri (fun i vpn -> if slot t vpn >= 0 then t.stamps.(slot t vpn) <- i) s.s_fifo;
  if Array.exists (fun st -> st < 0) (Array.sub t.stamps 0 t.live) then
    invalid_arg "Tlb.import: live vpn missing from the replacement queue";
  t.clock <- List.length s.s_fifo;
  t.stats.hits <- s.s_hits;
  t.stats.misses <- s.s_misses;
  t.stats.flushes <- s.s_flushes;
  t.stats.invalidations <- s.s_invalidations;
  t.stats.evictions <- s.s_evictions

(* [None] before any lookup: "no accesses yet" is not the same thing as a
   0% hit rate, and rendering layers print it as [-] rather than a bogus
   percentage. *)
let hit_rate_opt t =
  let total = t.stats.hits + t.stats.misses in
  if total = 0 then None else Some (float_of_int t.stats.hits /. float_of_int total)

let hit_rate t = match hit_rate_opt t with None -> 0.0 | Some r -> r

let pp_stats ppf t =
  Fmt.pf ppf "%s: hits=%d misses=%d flushes=%d invl=%d evict=%d" t.name t.stats.hits
    t.stats.misses t.stats.flushes t.stats.invalidations t.stats.evictions
