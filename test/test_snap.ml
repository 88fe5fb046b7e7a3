(* The snapshot subsystem: codec round-trips, whole-machine
   checkpoint/restore with bit-exact replay across scenarios, run-to-run
   determinism, the auto-checkpoint ring, forensic capture, and the
   file format. *)

let run_to_end os = Kernel.Os.run ~fuel:2_000_000 os

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let final_state os =
  let c = Kernel.Os.cost os in
  ( (c.cycles, c.insns, c.traps, c.split_faults, c.single_steps, c.syscalls, c.ctx_switches),
    List.map
      (Fmt.str "%a" Kernel.Event_log.pp_event)
      (Kernel.Event_log.to_list (Kernel.Os.log os)) )

let scenario name =
  match Snap.Scenario.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

(* --- Codec --------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let module W = Snap.Codec.W in
  let module R = Snap.Codec.R in
  let b = W.create () in
  W.raw b "HDR";
  List.iter (W.int b) [ 0; 1; -1; 42; -123456789; max_int / 2; -(max_int / 2) ];
  W.str b "hello\000world";
  W.str b "";
  W.bool b true;
  W.bool b false;
  W.opt W.int b None;
  W.opt W.int b (Some (-7));
  W.list W.str b [ "a"; "bb"; "" ];
  W.int_array b [| 3; -4; 5 |];
  let r = R.of_string (W.contents b) in
  R.expect r "HDR";
  List.iter
    (fun v -> Alcotest.(check int) "int" v (R.int r))
    [ 0; 1; -1; 42; -123456789; max_int / 2; -(max_int / 2) ];
  Alcotest.(check string) "str" "hello\000world" (R.str r);
  Alcotest.(check string) "empty str" "" (R.str r);
  Alcotest.(check bool) "true" true (R.bool r);
  Alcotest.(check bool) "false" false (R.bool r);
  Alcotest.(check (option int)) "none" None (R.opt R.int r);
  Alcotest.(check (option int)) "some" (Some (-7)) (R.opt R.int r);
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ] (R.list R.str r);
  Alcotest.(check (array int)) "array" [| 3; -4; 5 |] (R.int_array r);
  Alcotest.(check bool) "at end" true (R.at_end r)

let test_codec_corrupt () =
  (match Snap.Snapshot.decode "not a snapshot" with
  | exception Snap.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "garbage accepted");
  let s = scenario "benign" in
  let os = s.start () in
  let good = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os) in
  let truncated = String.sub good 0 (String.length good / 2) in
  match Snap.Snapshot.decode truncated with
  | exception Snap.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated snapshot accepted"

(* The integer codec as it was written byte by byte: the word-at-a-time
   [W.int]/[R.int] must produce and accept exactly these bytes. *)
module Per_byte_int = struct
  let encode v =
    let z = (v lsl 1) lxor (v asr 62) in
    String.init 8 (fun i -> Char.chr ((z lsr (8 * i)) land 0xFF))

  let decode s =
    let z = ref 0 in
    for i = 0 to 7 do
      z := !z lor (Char.code s.[i] lsl (8 * i))
    done;
    let z = !z in
    (z lsr 1) lxor (-(z land 1))
end

let prop_codec_int_matches_per_byte =
  let edges =
    [ 0; 1; -1; min_int; max_int; 1 lsl 61; -(1 lsl 61); (1 lsl 61) - 1; 1 - (1 lsl 61) ]
  in
  let gen =
    QCheck.Gen.(
      pair
        (frequency [ (1, oneofl edges); (3, int); (1, map (fun k -> 1 lsl k) (int_range 0 62)) ])
        (string_size (return 8)))
  in
  QCheck.Test.make ~name:"codec ints match the per-byte encoding" ~count:2000
    (QCheck.make ~print:QCheck.Print.(pair int string) gen)
    (fun (v, word) ->
      let module W = Snap.Codec.W in
      let module R = Snap.Codec.R in
      let b = W.create () in
      W.int b v;
      let bytes = W.contents b in
      String.equal bytes (Per_byte_int.encode v)
      && R.int (R.of_string bytes) = Per_byte_int.decode bytes
      (* any 8 bytes, bit 63 included, decode as before *)
      && R.int (R.of_string word) = Per_byte_int.decode word)

let test_codec_edge_ints () =
  List.iter
    (fun v ->
      let b = Snap.Codec.W.create () in
      Snap.Codec.W.int b v;
      Alcotest.(check string)
        (Fmt.str "bytes of %d" v) (Per_byte_int.encode v) (Snap.Codec.W.contents b))
    [ min_int; max_int; 1 lsl 61; -(1 lsl 61) ];
  Alcotest.check_raises "short read" (Snap.Codec.Corrupt "truncated at byte 5") (fun () ->
      ignore (Snap.Codec.R.int (Snap.Codec.R.of_string "\001\000\000\000\000")))

let corrupt_or_fail what f =
  match f () with
  | exception Snap.Codec.Corrupt _ -> ()
  | exception e -> Alcotest.failf "%s: untyped failure %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: accepted" what

(* A length field claiming more elements than the bytes left could hold is
   rejected before anything is allocated. The offsets follow the section
   order of [Snapshot.encode]: header, cost counters, the frame list, the
   skipped count, the allocator's in_use and peak, then its used list. *)
let test_codec_huge_lengths () =
  let module W = Snap.Codec.W in
  let module R = Snap.Codec.R in
  let s = scenario "benign" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap = Snap.Snapshot.checkpoint os in
  let in_use = Kernel.Frame_alloc.in_use (Kernel.Os.alloc os) in
  let good = Snap.Snapshot.encode snap in
  let int_at off = R.int (R.of_string (String.sub good off 8)) in
  let patch off v =
    let b = W.create () in
    W.int b v;
    let w = W.contents b in
    String.sub good 0 off ^ w ^ String.sub good (off + 8) (String.length good - off - 8)
  in
  let frames_len =
    String.length Snap.Snapshot.magic + (8 * 4)
    + String.length (Snap.Snapshot.protection_name snap)
    + 8 + (8 * 7)
  in
  let written = Snap.Snapshot.frames_written snap in
  Alcotest.(check int) "frame list length" written (int_at frames_len);
  let used_len = frames_len + 8 + (written * (16 + Snap.Snapshot.page_size snap)) + 8 + 16 in
  Alcotest.(check int) "used list length" in_use (int_at used_len);
  List.iter
    (fun (what, off) ->
      List.iter
        (fun n ->
          corrupt_or_fail (Fmt.str "%s = %d" what n) (fun () ->
              Snap.Snapshot.decode (patch off n)))
        [ String.length good; 1 lsl 40; max_int / 2 ])
    [ ("frame list length", frames_len); ("used list length", used_len) ];
  let b = W.create () in
  W.int b 2;
  W.int b 7;
  corrupt_or_fail "array of 2 ints in 8 bytes" (fun () -> R.int_array (R.of_string (W.contents b)))

(* --- Format v2: the decoder fails closed --------------------------------- *)

let encoded f =
  let b = Snap.Codec.W.create () in
  f b;
  Snap.Codec.W.contents b

(* Offsets at which [sub] occurs in [s]. *)
let occurrences s sub =
  let n = String.length sub in
  let rec matches i j = j = n || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  List.filter (fun i -> matches i 0) (List.init (max 0 (String.length s - n + 1)) Fun.id)

let splice s ~off ~len repl =
  String.sub s 0 off ^ repl ^ String.sub s (off + len) (String.length s - off - len)

let only_occurrence what s sub =
  match occurrences s sub with
  | [ off ] -> off
  | offs -> Alcotest.failf "%s found %d times in the blob" what (List.length offs)

let test_v1_rejected () =
  let good = Snap.Snapshot.encode (Snap.Snapshot.checkpoint ((scenario "benign").start ())) in
  let off = String.length Snap.Snapshot.magic in
  Alcotest.(check int)
    "version field" Snap.Snapshot.version
    (Snap.Codec.R.int (Snap.Codec.R.of_string (String.sub good off 8)));
  let v1 = splice good ~off ~len:8 (encoded (fun b -> Snap.Codec.W.int b 1)) in
  match Snap.Snapshot.decode v1 with
  | exception Snap.Codec.Corrupt msg ->
    Alcotest.(check bool) (Fmt.str "names the version: %s" msg) true (contains ~affix:"version 1" msg)
  | _ -> Alcotest.fail "v1 blob accepted"

(* The first entry of the frame list: its index out of range, or its bytes
   not one page long. *)
let test_frame_list_rejected () =
  let os = (scenario "benign").start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap = Snap.Snapshot.checkpoint os in
  let good = Snap.Snapshot.encode snap in
  let first =
    String.length Snap.Snapshot.magic + (8 * 4)
    + String.length (Snap.Snapshot.protection_name snap)
    + 8 + (8 * 7) + 8
  in
  let patch off v = splice good ~off ~len:8 (encoded (fun b -> Snap.Codec.W.int b v)) in
  List.iter
    (fun (what, bad) -> corrupt_or_fail what (fun () -> Snap.Snapshot.decode bad))
    [
      ("frame = frame count", patch first (Snap.Snapshot.frame_count snap));
      ("negative frame", patch first (-1));
      ("short page", patch (first + 8) (Snap.Snapshot.page_size snap - 1));
    ]

(* Every malformed used list is [Corrupt]; a well-formed replacement
   section still decodes. *)
let test_alloc_section_rejected () =
  let module W = Snap.Codec.W in
  let os = (scenario "benign").start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap = Snap.Snapshot.checkpoint os in
  let st = Kernel.Frame_alloc.export (Kernel.Os.alloc os) in
  let section ~in_use ~peak used =
    encoded (fun b ->
        W.int b in_use;
        W.int b peak;
        W.list
          (fun b (f, rc) ->
            W.int b f;
            W.int b rc)
          b used)
  in
  let good = Snap.Snapshot.encode snap in
  let orig = section ~in_use:st.s_in_use ~peak:st.s_peak_in_use st.s_used in
  let off = only_occurrence "allocator section" good orig in
  let with_section sec = splice good ~off ~len:(String.length orig) sec in
  let f1, f2 =
    match st.s_used with
    | (a, _) :: (b, _) :: _ -> (a, b)
    | _ -> Alcotest.fail "need two allocated frames"
  in
  let n = Snap.Snapshot.frame_count snap in
  List.iter
    (fun (what, sec) -> corrupt_or_fail what (fun () -> Snap.Snapshot.decode (with_section sec)))
    [
      ("frame 0", section ~in_use:1 ~peak:1 [ (0, 1) ]);
      ("negative frame", section ~in_use:1 ~peak:1 [ (-4, 1) ]);
      ("frame = frame count", section ~in_use:1 ~peak:1 [ (n, 1) ]);
      ("unsorted", section ~in_use:2 ~peak:2 [ (f2, 1); (f1, 1) ]);
      ("repeated", section ~in_use:2 ~peak:2 [ (f1, 1); (f1, 1) ]);
      ("refcount 0", section ~in_use:1 ~peak:1 [ (f1, 0) ]);
      ("negative refcount", section ~in_use:1 ~peak:1 [ (f1, -3) ]);
      ("fewer entries than in_use", section ~in_use:2 ~peak:2 [ (f1, 1) ]);
      ("more entries than in_use", section ~in_use:1 ~peak:2 [ (f1, 1); (f2, 1) ]);
      ("peak below in_use", section ~in_use:2 ~peak:1 [ (f1, 1); (f2, 1) ]);
    ];
  let snap' = Snap.Snapshot.decode (with_section (section ~in_use:1 ~peak:9 [ (f1, 3) ])) in
  Alcotest.(check string)
    "well-formed section round-trips" (with_section (section ~in_use:1 ~peak:9 [ (f1, 3) ]))
    (Snap.Snapshot.encode snap')

(* Emptying the segment table leaves every image region pointing past its
   end. *)
let test_segment_index_rejected () =
  let module W = Snap.Codec.W in
  let os = (scenario "benign").start () in
  ignore (Kernel.Os.run ~fuel:300 os);
  let good = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os) in
  let sources =
    List.fold_left
      (fun acc (p : Kernel.Proc.t) ->
        List.fold_left
          (fun acc (r : Kernel.Aspace.region) ->
            match r.source with
            | Image_bytes { base; bytes } when not (List.mem (base, bytes) acc) ->
              acc @ [ (base, bytes) ]
            | _ -> acc)
          acc p.aspace.regions)
      [] (Kernel.Os.procs os)
  in
  let table =
    encoded (fun b ->
        W.list
          (fun b (base, bytes) ->
            W.int b base;
            W.str b bytes)
          b sources)
  in
  let off = only_occurrence "segment table" good table in
  let bad = splice good ~off ~len:(String.length table) (encoded (fun b -> W.list W.int b [])) in
  match Snap.Snapshot.decode bad with
  | exception Snap.Codec.Corrupt msg ->
    Alcotest.(check bool) (Fmt.str "index check: %s" msg) true (contains ~affix:"segment index" msg)
  | _ -> Alcotest.fail "dangling segment index accepted"

(* A trace ring of the wrong length or a position outside it used to
   decode and restore, then fault on the first retired instruction. Each
   patched blob must be [Corrupt]; were one accepted, running it shows
   why. *)
let test_bad_trace_ring () =
  let module W = Snap.Codec.W in
  let start () = (scenario "benign").start () in
  let os = start () in
  ignore (Kernel.Os.run ~fuel:300 os);
  let good = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os) in
  let run blob =
    let target = start () in
    Snap.Snapshot.restore target (Snap.Snapshot.decode blob);
    ignore (Kernel.Os.run ~fuel:100 target)
  in
  run good;
  let p =
    List.fold_left
      (fun (a : Kernel.Proc.t) (b : Kernel.Proc.t) -> if b.p_insns > a.p_insns then b else a)
      (List.hd (Kernel.Os.procs os)) (Kernel.Os.procs os)
  in
  let ring trace pos =
    encoded (fun b ->
        W.int_array b trace;
        W.int b pos)
  in
  let orig = ring p.trace p.trace_pos in
  let off =
    match occurrences good orig with
    | off :: _ -> off
    | [] -> Alcotest.fail "trace ring not found in the blob"
  in
  let size = Kernel.Proc.trace_ring_size in
  List.iter
    (fun (what, repl) ->
      let bad = splice good ~off ~len:(String.length orig) repl in
      match Snap.Snapshot.decode bad with
      | exception Snap.Codec.Corrupt _ -> ()
      | _ ->
        run bad;
        Alcotest.failf "%s: accepted" what)
    [
      ("empty ring", ring [||] 0);
      ("short ring", ring (Array.sub p.trace 0 (size / 2)) 0);
      ("position = ring size", ring p.trace size);
      ("negative position", ring p.trace (-1));
    ]

(* Random allocator histories survive export -> encode -> decode ->
   import: the restored allocator agrees on every refcount and counter and
   hands out the same frames, single and paired, until both run out. *)
type alloc_op = Alloc | Alloc_pair | Incref of int | Decref of int | Register of int | Unshare of int

let pp_alloc_op = function
  | Alloc -> "alloc"
  | Alloc_pair -> "alloc_pair"
  | Incref k -> Fmt.str "incref %d" k
  | Decref k -> Fmt.str "decref %d" k
  | Register k -> Fmt.str "register %d" k
  | Unshare k -> Fmt.str "unshare %d" k

let prop_alloc_roundtrip =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (4, return Alloc);
          (2, return Alloc_pair);
          (2, map (fun k -> Incref k) nat);
          (4, map (fun k -> Decref k) nat);
          (1, map (fun k -> Register k) nat);
          (1, map (fun k -> Unshare k) nat);
        ])
  in
  let machine () =
    Kernel.Os.create ~frames:96 ~protection:(Defense.to_protection Defense.split_standalone) ()
  in
  Test.make ~name:"allocator state survives a snapshot round trip" ~count:150
    (make ~print:(Print.list pp_alloc_op) Gen.(list_size (int_range 0 160) op))
    (fun ops ->
      let module F = Kernel.Frame_alloc in
      let os = machine () in
      let fa = Kernel.Os.alloc os in
      let live = ref [] in
      let pick k = List.nth !live (k mod List.length !live) in
      List.iter
        (fun op ->
          try
            match op with
            | Alloc -> live := F.alloc fa :: !live
            | Alloc_pair ->
              let a, b = F.alloc_pair fa in
              live := a :: b :: !live
            | _ when !live = [] -> ()
            | Incref k -> F.incref fa (pick k)
            | Decref k ->
              let f = pick k in
              F.decref fa f;
              if F.refcount fa f = 0 then live := List.filter (( <> ) f) !live
            | Register k ->
              let f = pick k in
              F.register_share fa ~key:(string_of_int f) ~frame:f
            | Unshare k ->
              let f = pick k in
              let f' = F.unshare fa f in
              if f' <> f then live := f' :: !live
          with F.Out_of_frames -> ())
        ops;
      let blob = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os) in
      let os' = machine () in
      Snap.Snapshot.restore os' (Snap.Snapshot.decode blob);
      let fa' = Kernel.Os.alloc os' in
      let counters a = (F.free_frames a, F.in_use a, F.peak_in_use a) in
      let refcounts a = List.init 96 (F.refcount a) in
      let rec drain acc i =
        let next a =
          match if i land 1 = 0 then [ F.alloc a ] else (fun (x, y) -> [ x; y ]) (F.alloc_pair a) with
          | fs -> Some fs
          | exception F.Out_of_frames -> None
        in
        match (next fa, next fa') with
        | None, None -> Some (List.rev acc)
        | Some a, Some b when a = b -> drain (a :: acc) (i + 1)
        | _ -> None
      in
      counters fa = counters fa'
      && refcounts fa = refcounts fa'
      && drain [] 0 <> None)

(* --- Round-trip replay across scenarios ---------------------------------- *)

(* The ISSUE acceptance criterion: restore (checkpoint m) must produce an
   identical subsequent event log and cycle count, for a benign workload, a
   Break-mode attack and a Forensics-mode attack (plus Observe). *)
let test_roundtrip name () =
  let s = scenario name in
  let os = s.start () in
  let report, snap = Snap.Replay.check os in
  Alcotest.(check bool)
    (Fmt.str "replay identical (%a)" Snap.Replay.pp report)
    true (Snap.Replay.ok report);
  Alcotest.(check bool)
    "checkpoint taken mid-run" true
    (Snap.Snapshot.cycle snap > 0 && Snap.Snapshot.cycle snap < report.ref_cycles)

(* Restoring into a *fresh* machine (not the one that made the snapshot)
   must behave identically too — that is what `simctl restore` does. *)
let test_restore_into_fresh_machine () =
  let s = scenario "attack-break" in
  let os1 = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os1);
  let snap = Snap.Snapshot.checkpoint os1 in
  ignore (run_to_end os1);
  let ref_final = final_state os1 in
  let os2 = s.start () in
  Snap.Snapshot.restore os2 (Snap.Snapshot.decode (Snap.Snapshot.encode snap));
  ignore (run_to_end os2);
  Alcotest.(check (list string)) "event logs match" (snd ref_final) (snd (final_state os2));
  Alcotest.(check bool) "final state matches" true (final_state os2 = ref_final)

(* Restoring over a machine that already ran a different history must
   leave nothing of it behind: every frame it dirtied reads back as the
   snapshot says, so a fresh checkpoint re-encodes to the same bytes and
   the continuation matches the reference run. *)
let test_restore_into_used_machine () =
  let os1 = (scenario "benign").start () in
  ignore (Kernel.Os.run ~fuel:1500 os1);
  let blob = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os1) in
  ignore (run_to_end os1);
  let ref_final = final_state os1 in
  let used = (scenario "attack-break").start () in
  ignore (run_to_end used);
  Snap.Snapshot.restore used (Snap.Snapshot.decode blob);
  Alcotest.(check bool)
    "re-checkpoint is byte-identical" true
    (String.equal blob (Snap.Snapshot.encode (Snap.Snapshot.checkpoint used)));
  ignore (run_to_end used);
  Alcotest.(check (list string)) "event logs match" (snd ref_final) (snd (final_state used));
  Alcotest.(check bool) "final state matches" true (final_state used = ref_final)

(* Canonical serialization: checkpointing a restored machine re-encodes to
   the exact same bytes — there is no hidden state the format misses. *)
let test_canonical_reencode () =
  let s = scenario "attack-forensics" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let e1 = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os) in
  let os2 = s.start () in
  Snap.Snapshot.restore os2 (Snap.Snapshot.decode e1);
  let e2 = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os2) in
  Alcotest.(check int) "same size" (String.length e1) (String.length e2);
  Alcotest.(check bool) "bit-identical re-encode" true (String.equal e1 e2)

(* --- Determinism regression (satellite) ---------------------------------- *)

(* Two from-scratch runs of the same scenario: identical cycles, event
   logs, and metrics snapshots. Guards replay correctness and any future
   perf PR against nondeterminism creeping into the simulator. *)
let test_run_to_run_determinism name () =
  let once () =
    let obs = Obs.create () in
    let s = scenario name in
    let os = s.start ~obs () in
    ignore (run_to_end os);
    let metrics =
      Obs.Json.to_string (Obs.Metrics.to_json (Obs.snapshot obs))
    in
    (final_state os, metrics)
  in
  let (f1, m1) = once () in
  let (f2, m2) = once () in
  Alcotest.(check (list string)) "event logs" (snd f1) (snd f2);
  Alcotest.(check bool) "cost counters" true (fst f1 = fst f2);
  Alcotest.(check string) "metrics snapshots" m1 m2

(* --- Sparse frames ------------------------------------------------------- *)

let test_sparse_skip () =
  let s = scenario "benign" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap = Snap.Snapshot.checkpoint os in
  let written = Snap.Snapshot.frames_written snap in
  let skipped = Snap.Snapshot.frames_sparse_skipped snap in
  Alcotest.(check int)
    "written + skipped = total" (Snap.Snapshot.frame_count snap) (written + skipped);
  Alcotest.(check bool) "some frames written" true (written > 0);
  Alcotest.(check bool)
    (Fmt.str "sparse dominates (%d written, %d skipped)" written skipped)
    true
    (skipped > written)

(* --- Incompatible restore ------------------------------------------------ *)

let test_incompatible_restore () =
  let s = scenario "benign" in
  let os = s.start () in
  let snap = Snap.Snapshot.checkpoint os in
  let small =
    Kernel.Os.create ~frames:64
      ~protection:(Defense.to_protection s.defense)
      ()
  in
  (match Snap.Snapshot.restore small snap with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "frame-count mismatch accepted");
  let unprot =
    Kernel.Os.create ~protection:(Defense.to_protection Defense.unprotected) ()
  in
  match Snap.Snapshot.restore unprot snap with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "protection mismatch accepted"

(* --- Auto-checkpoint ring ------------------------------------------------ *)

let test_ring () =
  let s = scenario "benign" in
  let os = s.start () in
  let ring = Snap.Ring.install ~every_cycles:1500 ~keep:3 os in
  ignore (run_to_end os);
  let final = final_state os in
  let snaps = Snap.Ring.snapshots ring in
  Alcotest.(check bool)
    (Fmt.str "several taken (%d)" (Snap.Ring.taken ring))
    true
    (Snap.Ring.taken ring >= 3);
  Alcotest.(check bool) "bounded" true (List.length snaps <= 3);
  Alcotest.(check int) "evicted = taken - kept"
    (Snap.Ring.taken ring - List.length snaps)
    (Snap.Ring.evicted ring);
  (* ascending capture cycles, oldest first *)
  let cycles = List.map Snap.Snapshot.cycle snaps in
  Alcotest.(check (list int)) "oldest first" (List.sort compare cycles) cycles;
  Snap.Ring.uninstall ring;
  (* warm-start from the newest retained snapshot reaches the identical end
     state *)
  match Snap.Ring.latest ring with
  | None -> Alcotest.fail "no snapshot retained"
  | Some snap ->
    let os2 = s.start () in
    Snap.Snapshot.restore os2 snap;
    ignore (run_to_end os2);
    Alcotest.(check bool) "warm start converges" true (final_state os2 = final)

(* --- Forensic capture ---------------------------------------------------- *)

(* The ISSUE acceptance criterion: the payload diff's extracted bytes equal
   the injected shellcode, captured at the detection instant. *)
let test_forensic_capture () =
  let s = scenario "attack-break" in
  let os = s.start () in
  let captures = Snap.Forensics.arm os in
  ignore (run_to_end os);
  match !captures with
  | [] -> Alcotest.fail "no capture despite detection"
  | c :: _ ->
    Alcotest.(check int) "trigger eip = landing address" Snap.Scenario.payload_landing
      c.c_trigger.t_eip;
    Alcotest.(check string) "extracted bytes = injected shellcode"
      Snap.Scenario.injected_payload c.c_payload;
    Alcotest.(check bool) "diff present" true (c.c_diff <> None);
    (* the snapshot froze the machine with the detection in its log *)
    let events = ref [] in
    let os2 = s.start () in
    Snap.Snapshot.restore os2 c.c_snapshot;
    List.iter
      (fun e -> events := Fmt.str "%a" Kernel.Event_log.pp_event e :: !events)
      (Kernel.Event_log.to_list (Kernel.Os.log os2));
    Alcotest.(check bool) "detection event in snapshot" true
      (List.exists (contains ~affix:"code injection detected") !events)

let test_forensic_artifacts () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "snap-test-forensics" in
  let s = scenario "attack-forensics" in
  let os = s.start () in
  let captures = Snap.Forensics.arm ~dir os in
  ignore (run_to_end os);
  Alcotest.(check int) "one capture" 1 (List.length !captures);
  let file name = Filename.concat dir name in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " written") true (Sys.file_exists (file name)))
    [
      "capture-0.snap";
      "capture-0.snap.manifest.json";
      "capture-0.payload.bin";
      "capture-0.diff.json";
    ];
  let payload =
    In_channel.with_open_bin (file "capture-0.payload.bin") In_channel.input_all
  in
  Alcotest.(check string) "payload file = injected shellcode"
    Snap.Scenario.injected_payload payload;
  (* the manifest records the trigger *)
  let manifest =
    In_channel.with_open_text (file "capture-0.snap.manifest.json") In_channel.input_all
  in
  match Obs.Json.of_string (String.trim manifest) with
  | Error e -> Alcotest.failf "manifest does not parse: %s" e
  | Ok j ->
    Alcotest.(check bool) "manifest has trigger" true
      (match Obs.Json.member "trigger" j with
      | Some (Obs.Json.Obj _) -> true
      | _ -> false)

(* --- Files, manifest, obs metrics ---------------------------------------- *)

let test_save_load () =
  let file = Filename.temp_file "snap-test" ".snap" in
  let s = scenario "attack-observe" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap = Snap.Snapshot.checkpoint ~meta:[ ("scenario", "attack-observe") ] os in
  let bytes = Snap.Snapshot.save ~file snap in
  Alcotest.(check bool) "nonempty" true (bytes > 0);
  let loaded = Snap.Snapshot.load file in
  Alcotest.(check string) "encode(load) = encode(saved)"
    (Snap.Snapshot.encode snap) (Snap.Snapshot.encode loaded);
  Alcotest.(check (option string)) "meta survives" (Some "attack-observe")
    (Snap.Snapshot.find_meta loaded "scenario");
  let manifest =
    In_channel.with_open_text (file ^ ".manifest.json") In_channel.input_all
  in
  (match Obs.Json.of_string (String.trim manifest) with
  | Error e -> Alcotest.failf "manifest does not parse: %s" e
  | Ok j ->
    Alcotest.(check (option int)) "manifest bytes field" (Some bytes)
      (Option.bind (Obs.Json.member "bytes" j) Obs.Json.to_int));
  Sys.remove file;
  Sys.remove (file ^ ".manifest.json")

let test_obs_metrics () =
  let obs = Obs.create () in
  let s = scenario "benign" in
  let os = s.start ~obs () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap = Snap.Snapshot.checkpoint os in
  Snap.Snapshot.restore os snap;
  let file = Filename.temp_file "snap-test-obs" ".snap" in
  let bytes = Snap.Snapshot.save ~obs ~file snap in
  Sys.remove file;
  Sys.remove (file ^ ".manifest.json");
  let counters = Obs.Metrics.counters (Obs.metrics obs) in
  let counter name = List.assoc_opt name counters in
  Alcotest.(check (option int)) "snap.checkpoints" (Some 1) (counter "snap.checkpoints");
  Alcotest.(check (option int)) "snap.restores" (Some 1) (counter "snap.restores");
  Alcotest.(check (option int)) "snap.bytes_written" (Some bytes)
    (counter "snap.bytes_written");
  Alcotest.(check bool) "sparse skip counted" true
    (match counter "snap.frames_sparse_skipped" with Some n -> n > 0 | None -> false);
  let histo_names =
    List.map (fun (h : Obs.Metrics.histogram) -> h.h_name)
      (Obs.Metrics.histograms (Obs.metrics obs))
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n histo_names))
    [ "snap.checkpoint_us"; "snap.restore_us" ]

(* --- Injector state (lib/inject) ------------------------------------------ *)

(* An interrupted campaign run resumes to the same verdict: checkpoint a
   machine mid-plan (the plan and the engine's volatile state — PRNG
   cursor, budget spent, pending faults — ride in snapshot metadata),
   restore into a fresh machine, rearm, finish. Event log, cost counters
   and the engine's full exported state must match the uninterrupted
   reference run bit-for-bit. *)
let test_inject_rearm () =
  let s = scenario "benign" in
  let plan =
    Inject.Plan.make ~scenario:"benign" ~seed:7 ~at_cycle:500 ~every:400 ~budget:6 ()
  in
  (* the reference: interrupted at the same point, then simply continued —
     the replay-gate comparison (an uninterrupted run would place its
     scheduler boundaries, and hence injections, at different cycles) *)
  let os1 = s.start () in
  let eng1 = Inject.Engine.arm os1 plan in
  ignore (Kernel.Os.run ~fuel:900 os1);
  Alcotest.(check bool)
    "checkpoint lands mid-plan" true
    (Inject.Engine.injected_count eng1 > 0
    && Inject.Engine.injected_count eng1 < plan.budget);
  let snap = Inject.checkpoint os1 eng1 in
  let mid_count = Inject.Engine.injected_count eng1 in
  ignore (run_to_end os1);
  Alcotest.(check bool)
    "reference keeps injecting after the checkpoint" true
    (Inject.Engine.injected_count eng1 > mid_count);
  let os2 = s.start () in
  Snap.Snapshot.restore os2 (Snap.Snapshot.decode (Snap.Snapshot.encode snap));
  let eng2 = Inject.rearm os2 snap in
  Alcotest.(check int) "journal restored" mid_count (Inject.Engine.injected_count eng2);
  ignore (run_to_end os2);
  Alcotest.(check (list string))
    "event logs match" (snd (final_state os1)) (snd (final_state os2));
  Alcotest.(check bool) "cost counters match" true
    (fst (final_state os1) = fst (final_state os2));
  Alcotest.(check string)
    "engine state converges" (Inject.Engine.export eng1) (Inject.Engine.export eng2)

let test_inject_rearm_requires_meta () =
  let s = scenario "benign" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:900 os);
  let snap = Snap.Snapshot.checkpoint os in
  match Inject.rearm os snap with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rearm accepted a snapshot without injector state"

let suite =
  [
    Alcotest.test_case "codec round trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects corrupt input" `Quick test_codec_corrupt;
    QCheck_alcotest.to_alcotest prop_codec_int_matches_per_byte;
    Alcotest.test_case "codec edge ints and short read" `Quick test_codec_edge_ints;
    Alcotest.test_case "codec rejects huge lengths" `Quick test_codec_huge_lengths;
    Alcotest.test_case "v1 blob rejected" `Quick test_v1_rejected;
    Alcotest.test_case "malformed frame list rejected" `Quick test_frame_list_rejected;
    Alcotest.test_case "malformed allocator sections rejected" `Quick
      test_alloc_section_rejected;
    Alcotest.test_case "out-of-range segment index rejected" `Quick
      test_segment_index_rejected;
    Alcotest.test_case "bad trace ring rejected" `Quick test_bad_trace_ring;
    QCheck_alcotest.to_alcotest prop_alloc_roundtrip;
    Alcotest.test_case "round trip: benign" `Quick (test_roundtrip "benign");
    Alcotest.test_case "round trip: attack-break" `Quick (test_roundtrip "attack-break");
    Alcotest.test_case "round trip: attack-forensics" `Quick
      (test_roundtrip "attack-forensics");
    Alcotest.test_case "round trip: attack-observe" `Quick
      (test_roundtrip "attack-observe");
    Alcotest.test_case "restore into fresh machine" `Quick test_restore_into_fresh_machine;
    Alcotest.test_case "restore into used machine" `Quick test_restore_into_used_machine;
    Alcotest.test_case "canonical re-encode" `Quick test_canonical_reencode;
    Alcotest.test_case "determinism: benign" `Quick (test_run_to_run_determinism "benign");
    Alcotest.test_case "determinism: attack-observe" `Quick
      (test_run_to_run_determinism "attack-observe");
    Alcotest.test_case "sparse frame skipping" `Quick test_sparse_skip;
    Alcotest.test_case "incompatible restore rejected" `Quick test_incompatible_restore;
    Alcotest.test_case "auto-checkpoint ring" `Quick test_ring;
    Alcotest.test_case "forensic capture extracts payload" `Quick test_forensic_capture;
    Alcotest.test_case "forensic artifacts on disk" `Quick test_forensic_artifacts;
    Alcotest.test_case "save/load with manifest" `Quick test_save_load;
    Alcotest.test_case "obs metrics" `Quick test_obs_metrics;
    Alcotest.test_case "injector state round trip" `Quick test_inject_rearm;
    Alcotest.test_case "rearm rejects plain snapshots" `Quick
      test_inject_rearm_requires_meta;
  ]
