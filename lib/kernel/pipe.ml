type t = {
  uid : int;
  name : string;
  capacity : int;
  buf : Buffer.t;
  mutable read_pos : int;
  mutable readers : int;
  mutable writers : int;
  mutable bytes_written : int;
  (* Wait queues: pids blocked on this pipe, registered by the scheduler
     layer. A state change that could unblock a side reports each waiting
     pid through [wakeup] (attached by the owning machine) and clears that
     side's list — the scheduler re-registers anyone still blocked after
     rechecking the full wake condition, so a spurious notification is
     harmless. Not serialized: lib/snap restore re-derives pending wakeups
     from blocked-process state. *)
  mutable read_waiters : int list;
  mutable write_waiters : int list;
  mutable wakeup : int -> unit;
}

(* Process-wide and atomic: machines in different domains create pipes
   concurrently. *)
let next_uid = Atomic.make 0

let create ?(capacity = 65536) ~name () =
  {
    uid = Atomic.fetch_and_add next_uid 1;
    name;
    capacity;
    buf = Buffer.create 256;
    read_pos = 0;
    readers = 1;
    writers = 1;
    bytes_written = 0;
    read_waiters = [];
    write_waiters = [];
    wakeup = ignore;
  }

let uid t = t.uid
let name t = t.name
let level t = Buffer.length t.buf - t.read_pos
let is_empty t = level t = 0
let space t = t.capacity - level t
let has_writers t = t.writers > 0
let has_readers t = t.readers > 0
let bytes_written t = t.bytes_written

let set_wakeup t f = t.wakeup <- f

let add_read_waiter t pid =
  if not (List.mem pid t.read_waiters) then t.read_waiters <- pid :: t.read_waiters

let add_write_waiter t pid =
  if not (List.mem pid t.write_waiters) then t.write_waiters <- pid :: t.write_waiters

let notify_readers t =
  match t.read_waiters with
  | [] -> ()
  | ws ->
    t.read_waiters <- [];
    List.iter t.wakeup ws

let notify_writers t =
  match t.write_waiters with
  | [] -> ()
  | ws ->
    t.write_waiters <- [];
    List.iter t.wakeup ws

let add_reader t = t.readers <- t.readers + 1
let add_writer t = t.writers <- t.writers + 1

let close_reader t =
  t.readers <- max 0 (t.readers - 1);
  (* last reader gone -> writers see EPIPE; readers re-check EOF too *)
  if t.readers = 0 then notify_writers t

let close_writer t =
  t.writers <- max 0 (t.writers - 1);
  (* last writer gone -> blocked readers see EOF *)
  if t.writers = 0 then notify_readers t

(* Compact the internal buffer once the consumed prefix dominates, so a
   long-lived pipe doesn't grow without bound. *)
let compact t =
  if t.read_pos > 4096 && t.read_pos * 2 > Buffer.length t.buf then begin
    let rest = Buffer.sub t.buf t.read_pos (level t) in
    Buffer.clear t.buf;
    Buffer.add_string t.buf rest;
    t.read_pos <- 0
  end

let write t s =
  let n = min (String.length s) (space t) in
  Buffer.add_substring t.buf s 0 n;
  t.bytes_written <- t.bytes_written + n;
  if n > 0 then notify_readers t;
  n

let read t ~max =
  let n = min max (level t) in
  let s = Buffer.sub t.buf t.read_pos n in
  t.read_pos <- t.read_pos + n;
  compact t;
  if n > 0 then notify_writers t;
  s

let drain t = read t ~max:(level t)

type state = {
  s_name : string;
  s_capacity : int;
  s_pending : string;  (* buffered-but-unread bytes *)
  s_readers : int;
  s_writers : int;
  s_bytes_written : int;
}

let export t =
  {
    s_name = t.name;
    s_capacity = t.capacity;
    s_pending = Buffer.sub t.buf t.read_pos (level t);
    s_readers = t.readers;
    s_writers = t.writers;
    s_bytes_written = t.bytes_written;
  }

let import (s : state) =
  let t = create ~capacity:s.s_capacity ~name:s.s_name () in
  Buffer.add_string t.buf s.s_pending;
  t.readers <- s.s_readers;
  t.writers <- s.s_writers;
  t.bytes_written <- s.s_bytes_written;
  t
