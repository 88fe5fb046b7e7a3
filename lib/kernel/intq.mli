(** A first-in first-out queue of ints: a ring buffer that doubles when
    full. Pushing allocates nothing and leaves no major-to-minor pointer
    behind — the kernel's run queue and pending-wakeup list. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool
val clear : t -> unit
val push : t -> int -> unit

val pop : t -> int
(** The oldest element. @raise Invalid_argument when empty. *)

val to_list : t -> int list
(** Oldest first. *)
