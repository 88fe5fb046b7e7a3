(** Translation lookaside buffer.

    The machine has two of these — an instruction-TLB and a data-TLB —
    mirroring the split-TLB design of modern x86 parts (paper §4.1.1). The
    split-memory technique works precisely because each TLB caches its own
    (vpn -> frame, permissions) mapping: once an entry is cached, later
    accesses are served from it without consulting the pagetable, so the two
    TLBs can deliberately be driven out of sync. *)

type entry = { vpn : int; frame : int; user : bool; writable : bool; nx : bool }
(** An entry as a value, for tools, tests and snapshots. The TLB itself
    stores packed entries (below). *)

(** {2 Packed entries}

    A packed entry is one [int]: the frame number shifted left by 4 over
    the permission bits. The hardware page walk ({!Mmu.reload_cr3})
    returns the same word with {!present_bit} set, so a fill stores the
    walk's result as it is. *)

val user_bit : int
val writable_bit : int
val nx_bit : int
val present_bit : int

val no_entry : int
(** [-1]: what {!probe} returns on a miss. *)

val pack : frame:int -> user:bool -> writable:bool -> nx:bool -> int
val frame_of : int -> int
val unpack : int -> int -> entry
(** [unpack vpn p] is the entry value of packed [p]. *)

(** Replacement policy. [Fifo] (the default): entries age in insertion
    order. [Lru]: every hit renews the entry's age, so the
    least-recently-used live entry is the victim. Neither allocates on a
    hit. *)
type policy = Fifo | Lru

val policy_name : policy -> string

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  mutable invalidations : int;
  mutable evictions : int;
}

type t

val create : ?policy:policy -> name:string -> capacity:int -> unit -> t
(** Default policy: {!Fifo}. *)

val name : t -> string
val capacity : t -> int
val policy : t -> policy
val size : t -> int
val stats : t -> stats

val probe : t -> int -> int
(** Lookup by virtual page number; updates hit/miss statistics (and the
    LRU age) and returns the packed entry, or {!no_entry} on a miss. The
    MMU's allocation-free lookup. *)

val lookup : t -> int -> entry option
(** {!probe} with the result unpacked into an [option]. *)

val note_hits : t -> int -> int -> unit
(** [note_hits t vpn n] accounts for [n] guaranteed hits on [vpn] without
    performing the lookups: hits advance by [n] and, under {!Lru}, the
    entry's age is renewed exactly as [n] consecutive {!probe}s would
    renew it. The caller must know the entry is resident and cannot be
    evicted across the folded window — the block-dispatch contract for the
    trailing bytes of a page-bounded instruction. *)

val peek : t -> int -> entry option
(** Lookup without touching statistics (for tests and assertions). *)

val fill : t -> int -> int -> unit
(** [fill t vpn p] stores packed entry [p] for [vpn] (replacing any entry
    for the same vpn, which keeps its age); when full, evicts the live
    entry with the oldest age under the replacement {!policy}. The MMU's
    allocation-free fill: [vpn] and the frame of [p] must be
    non-negative. *)

val insert : t -> entry -> unit
(** {!fill} from an entry value. @raise Invalid_argument on a negative
    vpn or frame. *)

val entries : t -> entry list
(** Live entries sorted by vpn, without touching statistics — the
    fault-injection target list. *)

val tamper : t -> int -> (entry -> entry) -> bool
(** [tamper t vpn f] replaces the entry for [vpn] with [f entry] in place
    (the vpn itself cannot be changed), bypassing statistics and ages.
    Returns [false] if no entry is cached for [vpn]; raises
    [Invalid_argument] if [f] returns a negative frame. This is the
    fault-injection surface: it models a bit flip inside a TLB cell, not an
    architectural insert. *)

val invalidate : t -> int -> unit
(** [invlpg]: drop the entry for one vpn, if present. *)

val flush : t -> unit
(** Drop everything — what a CR3 reload (context switch) does. *)

type state = {
  s_entries : entry list;  (** live entries, sorted by vpn *)
  s_fifo : int list;  (** live vpns in replacement order, oldest first *)
  s_hits : int;
  s_misses : int;
  s_flushes : int;
  s_invalidations : int;
  s_evictions : int;
}
(** Complete serializable TLB state: a restored TLB reproduces the
    original's future eviction order exactly. *)

val export : t -> state
val import : t -> state -> unit
(** Replace the TLB's contents and statistics with [state]. [s_fifo] may
    be a raw replacement queue with stale or duplicate vpns: each live vpn
    takes the age of its last occurrence. @raise Invalid_argument when
    [s_entries] exceeds the capacity, repeats a vpn, or holds a vpn absent
    from [s_fifo]. *)

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val hit_rate_opt : t -> float option
(** Like {!hit_rate} but [None] before any lookup, so renderers can show
    "no traffic" ([-]) instead of a meaningless 0%. *)

val pp_stats : Format.formatter -> t -> unit
