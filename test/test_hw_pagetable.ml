(* The packed-pagetable fidelity study: the hardware walker reads real
   two-level tables out of simulated physical memory, and the whole
   TLB-desynchronization sequence works against single 32-bit PTE stores. *)

module Pt = Kernel.Hw_pagetable

let fixture () =
  let phys = Hw.Phys.create ~frames:256 () in
  let alloc = Kernel.Frame_alloc.create phys in
  let cost = Hw.Cost.create () in
  let mmu = Hw.Mmu.create ~phys ~cost () in
  (phys, alloc, mmu)

let test_encode_roundtrip () =
  let cases =
    [
      (5, true, true, false, false, false);
      (0xFFFFF, false, false, true, true, true);
      (1, true, false, false, true, false);
    ]
  in
  List.iter
    (fun (frame, writable, user, nx, split, data_sel) ->
      let e = Pt.encode ~frame ~writable ~user ~nx ~split ~data_sel in
      Alcotest.(check int) "frame" frame (Pt.frame_of e);
      Alcotest.(check bool) "present" true (Pt.present e);
      Alcotest.(check bool) "writable" writable (Pt.writable e);
      Alcotest.(check bool) "user" user (Pt.user e);
      Alcotest.(check bool) "nx" nx (Pt.nx e);
      Alcotest.(check bool) "split" split (Pt.split e);
      Alcotest.(check bool) "data_sel" data_sel (Pt.data_selected e))
    cases

let test_map_walk_unmap () =
  let mem, alloc, _ = fixture () in
  let pt = Pt.create mem alloc in
  (* vpns spanning two directory entries *)
  Pt.map pt ~vpn:7 ~frame:42 ~writable:true ~user:true ();
  Pt.map pt ~vpn:(1024 + 7) ~frame:43 ~writable:false ~user:true ~nx:true ();
  let hw frame ~writable ~nx =
    Hw.Mmu.pack_pte { Hw.Mmu.frame; present = true; writable; user = true; nx }
  in
  Alcotest.(check int) "walk vpn 7" (hw 42 ~writable:true ~nx:false) (Pt.walk pt 7);
  Alcotest.(check int) "walk vpn 1031" (hw 43 ~writable:false ~nx:true) (Pt.walk pt (1024 + 7));
  Alcotest.(check int) "unmapped absent" Hw.Mmu.no_pte (Pt.walk pt 8);
  Pt.unmap pt 7;
  Alcotest.(check int) "unmap works" Hw.Mmu.no_pte (Pt.walk pt 7)

let test_split_pair_adjacency () =
  let mem, alloc, _ = fixture () in
  let pt = Pt.create mem alloc in
  let original = Kernel.Frame_alloc.alloc alloc in
  Hw.Phys.blit_from_string mem ~frame:original ~off:0 "PAYLOAD";
  Pt.map pt ~vpn:5 ~frame:original ~writable:true ~user:true ();
  let code, data = Pt.split_page pt 5 in
  Alcotest.(check int) "side-by-side" (code + 1) data;
  Alcotest.(check int) "code even" 0 (code land 1);
  Alcotest.(check string) "code copy" "PAYLOAD" (String.sub (Hw.Phys.to_string mem ~frame:code) 0 7);
  Alcotest.(check string) "data copy" "PAYLOAD" (String.sub (Hw.Phys.to_string mem ~frame:data) 0 7);
  (* entry is split + supervisor, pointing at the code copy *)
  (match Pt.entry pt 5 with
  | Some e ->
    Alcotest.(check bool) "split bit" true (Pt.split e);
    Alcotest.(check bool) "restricted" false (Pt.user e);
    Alcotest.(check int) "points at code" code (Pt.frame_of e)
  | None -> Alcotest.fail "entry vanished");
  (* idempotent *)
  let code', data' = Pt.split_page pt 5 in
  Alcotest.(check (pair int int)) "idempotent" (code, data) (code', data')

(* Replay the full Algorithm-1 desync against packed tables, with the MMU
   walker reading them from simulated physical memory. *)
let test_desync_on_packed_tables () =
  let mem, alloc, mmu = fixture () in
  let pt = Pt.create mem alloc in
  let original = Kernel.Frame_alloc.alloc alloc in
  Pt.map pt ~vpn:9 ~frame:original ~writable:true ~user:true ();
  let code, data = Pt.split_page pt 9 in
  Hw.Phys.blit_from_string mem ~frame:code ~off:0 "CODE";
  Hw.Phys.blit_from_string mem ~frame:data ~off:0 "DATA";
  Hw.Mmu.reload_cr3 mmu (Pt.walk pt);
  let addr = 9 * 4096 in
  (* restricted: user access faults *)
  (match Hw.Mmu.read8 mmu ~from_user:true addr with
  | exception Hw.Mmu.Page_fault { kind = Hw.Mmu.Protection; _ } -> ()
  | _ -> Alcotest.fail "restricted entry must fault");
  (* Algorithm 1 data branch: point at data, unrestrict, touch, restrict *)
  Pt.point_at_data pt 9;
  Pt.unrestrict pt 9;
  Hw.Mmu.touch_read mmu addr;
  Pt.restrict pt 9;
  (* Algorithm 1 code branch: point at code, unrestrict, fetch, restrict *)
  Pt.point_at_code pt 9;
  Pt.unrestrict pt 9;
  ignore (Hw.Mmu.fetch8 mmu ~from_user:true addr);
  Pt.restrict pt 9;
  (* desynchronized *)
  Alcotest.(check int) "fetch -> CODE" (Char.code 'C') (Hw.Mmu.fetch8 mmu ~from_user:true addr);
  Alcotest.(check int) "read -> DATA" (Char.code 'D') (Hw.Mmu.read8 mmu ~from_user:true addr)

let test_free_releases_everything () =
  let mem, alloc, _ = fixture () in
  let before = Kernel.Frame_alloc.in_use alloc in
  let pt = Pt.create mem alloc in
  for vpn = 0 to 5 do
    let f = Kernel.Frame_alloc.alloc alloc in
    Pt.map pt ~vpn ~frame:f ~writable:true ~user:true ()
  done;
  ignore (Pt.split_page pt 2);
  ignore (Pt.split_page pt 4);
  Pt.free pt;
  Alcotest.(check int) "no leaks" before (Kernel.Frame_alloc.in_use alloc)

let test_alloc_pair_properties () =
  let mem = Hw.Phys.create ~frames:64 () in
  let alloc = Kernel.Frame_alloc.create mem in
  (* fragment the free list a bit *)
  let singles = List.init 7 (fun _ -> Kernel.Frame_alloc.alloc alloc) in
  let a, b = Kernel.Frame_alloc.alloc_pair alloc in
  Alcotest.(check int) "adjacent" (a + 1) b;
  Alcotest.(check int) "even" 0 (a land 1);
  Alcotest.(check bool) "not frame 0" true (a > 0);
  List.iter (fun f -> Kernel.Frame_alloc.decref alloc f) singles;
  Kernel.Frame_alloc.decref alloc a;
  Kernel.Frame_alloc.decref alloc b;
  Alcotest.(check int) "all freed" 0 (Kernel.Frame_alloc.in_use alloc)

let suite =
  [
    Alcotest.test_case "entry encode/decode" `Quick test_encode_roundtrip;
    Alcotest.test_case "map / walk / unmap over two levels" `Quick test_map_walk_unmap;
    Alcotest.test_case "split: side-by-side pair, split bit" `Quick test_split_pair_adjacency;
    Alcotest.test_case "full desync on packed tables" `Quick test_desync_on_packed_tables;
    Alcotest.test_case "free releases split pairs too" `Quick test_free_releases_everything;
    Alcotest.test_case "alloc_pair adjacency" `Quick test_alloc_pair_properties;
  ]
