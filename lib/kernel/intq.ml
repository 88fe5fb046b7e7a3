(* A FIFO of ints in a ring buffer that doubles when full. Pushing stores
   an int into an int array: nothing is allocated and no pointer from the
   major heap to the minor heap is left for the next minor collection to
   scan, which a [Queue] cell or a list cons per push would be. *)

type t = { mutable ring : int array; mutable head : int; mutable len : int }

let create () = { ring = Array.make 16 0; head = 0; len = 0 }
let length q = q.len
let is_empty q = q.len = 0

let clear q =
  q.head <- 0;
  q.len <- 0

(* the ring's length is a power of two, so positions wrap with a mask *)
let at q i = q.ring.((q.head + i) land (Array.length q.ring - 1))

let push q v =
  let cap = Array.length q.ring in
  if q.len = cap then begin
    let ring = Array.make (2 * cap) 0 in
    for i = 0 to q.len - 1 do
      ring.(i) <- at q i
    done;
    q.ring <- ring;
    q.head <- 0
  end;
  q.ring.((q.head + q.len) land (Array.length q.ring - 1)) <- v;
  q.len <- q.len + 1

let pop q =
  if q.len = 0 then invalid_arg "Intq.pop: empty";
  let v = q.ring.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.ring - 1);
  q.len <- q.len - 1;
  v

let to_list q = List.init q.len (at q)
