exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

module W = struct
  (* A growable byte buffer, or with [sizing] a counter that stores
     nothing: running an encoder over a sizer first gives the exact length,
     so the real pass fills one buffer that [contents] hands out without a
     copy. *)
  type t = { mutable buf : Bytes.t; mutable len : int; sizing : bool }

  let create ?(size = 65536) () = { buf = Bytes.create size; len = 0; sizing = false }
  let sizer () = { buf = Bytes.empty; len = 0; sizing = true }
  let length b = b.len

  (* Make room for [n] more bytes; [false] when only counting. *)
  let room b n =
    (not b.sizing)
    && begin
         if b.len + n > Bytes.length b.buf then begin
           let buf = Bytes.create (max (b.len + n) (2 * Bytes.length b.buf)) in
           Bytes.blit b.buf 0 buf 0 b.len;
           b.buf <- buf
         end;
         true
       end

  let u8 b v =
    if room b 1 then Bytes.unsafe_set b.buf b.len (Char.unsafe_chr (v land 0xFF));
    b.len <- b.len + 1

  (* zigzag so negative values (register contents, error returns held in
     saved GPRs) stay within the unsigned 62-bit range of the encoding; the
     63-bit zigzag word goes out as one little-endian int64 whose bit 63 is
     always 0 *)
  let int b v =
    let z = (v lsl 1) lxor (v asr 62) in
    if room b 8 then
      Bytes.set_int64_le b.buf b.len (Int64.logand (Int64.of_int z) Int64.max_int);
    b.len <- b.len + 8

  let bool b v = u8 b (if v then 1 else 0)

  let raw_sub b s ~pos ~len =
    if room b len then Bytes.blit_string s pos b.buf b.len len;
    b.len <- b.len + len

  let raw b s = raw_sub b s ~pos:0 ~len:(String.length s)

  let str_sub b s ~pos ~len =
    int b len;
    raw_sub b s ~pos ~len

  let str b s = str_sub b s ~pos:0 ~len:(String.length s)

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

  let contents b =
    let s =
      if b.len = Bytes.length b.buf then Bytes.unsafe_to_string b.buf
      else Bytes.sub_string b.buf 0 b.len
    in
    b.buf <- Bytes.empty;
    b.len <- 0;
    s
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

  let view r =
    let n = int r in
    if n < 0 || r.pos + n > String.length r.s then
      corrupt "bad string length %d at byte %d" n r.pos;
    let pos = r.pos in
    r.pos <- r.pos + n;
    (r.s, pos, n)

  let str r =
    let s, pos, n = view r in
    String.sub s pos n

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
