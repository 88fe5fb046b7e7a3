exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

module W = struct
  type t = Buffer.t

  let create ?(size = 65536) () = Buffer.create size
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

  (* zigzag so negative values (register contents, error returns held in
     saved GPRs) stay within the unsigned 62-bit range of the encoding; the
     63-bit zigzag word goes out as one little-endian int64 whose bit 63 is
     always 0 *)
  let int b v =
    let z = (v lsl 1) lxor (v asr 62) in
    Buffer.add_int64_le b (Int64.logand (Int64.of_int z) Int64.max_int)

  let bool b v = u8 b (if v then 1 else 0)

  let str b s =
    int b (String.length s);
    Buffer.add_string b s

  let opt f b = function
    | None -> bool b false
    | Some v ->
      bool b true;
      f b v

  let list f b xs =
    int b (List.length xs);
    List.iter (f b) xs

  let int_array b a =
    int b (Array.length a);
    Array.iter (int b) a

  let raw = Buffer.add_string
  let contents = Buffer.contents
end

module R = struct
  type t = { s : string; mutable pos : int }

  let of_string s = { s; pos = 0 }

  let u8 r =
    if r.pos >= String.length r.s then corrupt "truncated at byte %d" r.pos;
    let v = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let remaining r = String.length r.s - r.pos

  (* [Int64.to_int] drops bit 63, as the 63-bit word it was encoded from *)
  let int r =
    if remaining r < 8 then corrupt "truncated at byte %d" (String.length r.s);
    let z = Int64.to_int (String.get_int64_le r.s r.pos) in
    r.pos <- r.pos + 8;
    (z lsr 1) lxor (-(z land 1))

  let bool r =
    match u8 r with
    | 0 -> false
    | 1 -> true
    | n -> corrupt "bad bool tag %d at byte %d" n (r.pos - 1)

  let str r =
    let n = int r in
    if n < 0 || r.pos + n > String.length r.s then
      corrupt "bad string length %d at byte %d" n r.pos;
    let s = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    s

  let opt f r = if bool r then Some (f r) else None

  (* Lengths are checked against the bytes left before anything is
     allocated: every element takes at least one byte, an int eight. *)
  let list f r =
    let n = int r in
    if n < 0 then corrupt "negative list length at byte %d" r.pos;
    if n > remaining r then corrupt "list length %d exceeds input at byte %d" n r.pos;
    List.init n (fun _ -> f r)

  let int_array r =
    let n = int r in
    if n < 0 then corrupt "negative array length at byte %d" r.pos;
    if n > remaining r / 8 then corrupt "array length %d exceeds input at byte %d" n r.pos;
    Array.init n (fun _ -> int r)

  let at_end r = r.pos = String.length r.s

  let expect r lit =
    let n = String.length lit in
    if r.pos + n > String.length r.s || String.sub r.s r.pos n <> lit then
      corrupt "expected %S at byte %d" lit r.pos;
    r.pos <- r.pos + n
end
