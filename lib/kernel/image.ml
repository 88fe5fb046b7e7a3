type seg_kind = Code | Rodata | Data | Mixed | Lib

let seg_kind_name = function
  | Code -> "code"
  | Rodata -> "rodata"
  | Data -> "data"
  | Mixed -> "mixed"
  | Lib -> "lib"

type segment = { base : int; bytes : string; kind : seg_kind; writable : bool }

type t = {
  name : string;
  segments : segment list;
  entry : int;
  bss_size : int;
  signature : int;
  labels : (string, int) Hashtbl.t;
}

exception Unknown_label of string

let signable img =
  img.name
  :: string_of_int img.entry
  :: string_of_int img.bss_size
  :: List.concat_map
       (fun s -> [ string_of_int s.base; s.bytes; seg_kind_name s.kind ])
       img.segments

let seal img = { img with signature = Signature.sign (signable img) }
let verify img = Signature.verify (signable img) img.signature

let tamper img =
  match img.segments with
  | [] -> img
  | seg :: rest ->
    let bytes = Bytes.of_string seg.bytes in
    if Bytes.length bytes > 0 then
      Bytes.set bytes 0 (Char.chr (Char.code (Bytes.get bytes 0) lxor 0xFF));
    { img with segments = { seg with bytes = Bytes.to_string bytes } :: rest }

type builder = lbl:(string -> int) -> Isa.Asm.program

let no_program : builder = fun ~lbl:_ -> []

let specials =
  [
    ("bss", Layout.bss_base);
    ("heap", Layout.heap_base);
    ("stack_top", Layout.stack_top);
    ("initial_esp", Layout.initial_esp);
  ]

(* Two passes over all segments. Instruction and data sizes do not
   depend on immediate values, so laying the programs out with every
   unknown label resolved to 0 yields the final addresses; the second pass
   assembles with the real addresses and must produce exactly the laid-out
   sizes. *)
let build ~name ?(rodata = []) ?(lib = []) ?(bss_size = 0) ?(data = no_program)
    ?(mixed = no_program) ~code ~entry () =
  let programs resolver =
    [
      (Layout.code_base, code ~lbl:resolver, Code, false);
      (Layout.rodata_base, rodata, Rodata, false);
      (Layout.lib_base, lib, Lib, false);
      (Layout.data_base, data ~lbl:resolver, Data, true);
      (Layout.mixed_base, mixed ~lbl:resolver, Mixed, true);
    ]
  in
  let pass1 =
    List.map (fun (origin, prog, _, _) -> Isa.Asm.layout ~origin prog) (programs (fun _ -> 0))
  in
  let resolve name =
    match List.assoc_opt name specials with
    | Some a -> a
    | None -> (
      match List.find_map (fun (labels, _) -> Hashtbl.find_opt labels name) pass1 with
      | Some a -> a
      | None -> raise (Unknown_label name))
  in
  let pass2 =
    List.map
      (fun (origin, prog, kind, writable) -> (Isa.Asm.assemble ~origin prog, kind, writable))
      (programs resolve)
  in
  List.iter2
    (fun (_, size) ((a : Isa.Asm.assembled), _, _) -> assert (String.length a.code = size))
    pass1 pass2;
  let segments =
    List.filter_map
      (fun ((a : Isa.Asm.assembled), kind, writable) ->
        if String.length a.code = 0 then None
        else Some { base = a.origin; bytes = a.code; kind; writable })
      pass2
  in
  let labels = Hashtbl.create 64 in
  List.iter
    (fun ((a : Isa.Asm.assembled), _, _) ->
      Hashtbl.iter
        (fun l addr ->
          if Hashtbl.mem labels l then raise (Isa.Asm.Duplicate_label l);
          Hashtbl.add labels l addr)
        a.labels)
    pass2;
  List.iter (fun (l, a) -> Hashtbl.replace labels l a) specials;
  seal { name; segments; entry = resolve entry; bss_size; signature = 0; labels }

let find_segment img kind = List.find_opt (fun s -> s.kind = kind) img.segments

let label img l =
  match Hashtbl.find_opt img.labels l with
  | Some a -> a
  | None -> raise (Unknown_label l)
