(* Kernel: loader, signatures, demand paging, COW/fork, pipes, signals,
   memory accounting. *)

open Isa.Asm

let exit_image ?(code = 0) ?(name = "exiter") () =
  Kernel.Image.build ~name ~code:(fun ~lbl:_ -> L "main" :: Guest.sys_exit code) ~entry:"main" ()

let run_image ?(protection = Kernel.Protection.none) image =
  let k = Kernel.Os.create ~protection () in
  let p = Kernel.Os.spawn k image in
  let reason = Kernel.Os.run k in
  (k, p, reason)

let check_exited ?(code = 0) (p : Kernel.Proc.t) =
  match p.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Exited n) when n = code -> ()
  | s -> Alcotest.failf "expected exit(%d), got %a" code Kernel.Proc.pp_state s

(* --- loader & signatures ------------------------------------------------- *)

let test_exit_code () =
  let _, p, _ = run_image (exit_image ~code:42 ()) in
  check_exited ~code:42 p

let test_signature_rejected () =
  let image = Kernel.Image.tamper (exit_image ()) in
  let k = Kernel.Os.create ~protection:Kernel.Protection.none () in
  (match Kernel.Os.spawn k image with
  | exception Kernel.Os.Rejected_image _ -> ()
  | _ -> Alcotest.fail "tampered image must be rejected");
  Alcotest.(check bool) "logged" true
    (Kernel.Event_log.find_first (Kernel.Os.log k) (function
       | Kernel.Event_log.Library_rejected _ -> true
       | _ -> false)
    <> None)

let test_signature_reseal () =
  (* resealing a tampered image makes it loadable again (a trusted rebuild) *)
  let image = Kernel.Image.seal (Kernel.Image.tamper (exit_image ())) in
  let k = Kernel.Os.create ~protection:Kernel.Protection.none () in
  ignore (Kernel.Os.spawn k image)

let test_signature_disabled () =
  let image = Kernel.Image.tamper (exit_image ()) in
  let k = Kernel.Os.create ~verify_signatures:false ~protection:Kernel.Protection.none () in
  ignore (Kernel.Os.spawn k image)

(* --- demand paging -------------------------------------------------------- *)

let test_stack_growth () =
  (* touch memory far down the stack: demand paging maps it *)
  let image =
    Kernel.Image.build ~name:"deepstack"
      ~code:(fun ~lbl:_ ->
        [
          L "main";
          I (Lea (EBX, ESP, -40000));
          I (Mov_ri (EAX, 0x77));
          I (Storeb (EBX, 0, EAX));
          I (Loadb (ECX, EBX, 0));
          I (Mov_rr (EBX, ECX));
          I (Mov_ri (EAX, 1));
          I (Int 0x80);
        ])
      ~entry:"main" ()
  in
  let _, p, _ = run_image image in
  check_exited ~code:0x77 p

let test_segfault_outside_regions () =
  let image =
    Kernel.Image.build ~name:"wild"
      ~code:(fun ~lbl:_ ->
        [ L "main"; I (Mov_ri (EBX, 0x20000000)); I (Loadb (EAX, EBX, 0)) ]
        @ Guest.sys_exit 0)
      ~entry:"main" ()
  in
  let _, p, _ = run_image image in
  match p.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Killed Kernel.Proc.Sigsegv) -> ()
  | s -> Alcotest.failf "expected SIGSEGV, got %a" Kernel.Proc.pp_state s

let test_rodata_write_faults () =
  let image =
    Kernel.Image.build ~name:"rowrite" ~rodata:[ L "konst"; Word32 5 ]
      ~code:(fun ~lbl ->
        [ L "main"; I (Mov_ri (EBX, lbl "konst")); I (Mov_ri (EAX, 9)); I (Store (EBX, 0, EAX)) ]
        @ Guest.sys_exit 0)
      ~entry:"main" ()
  in
  let _, p, _ = run_image image in
  match p.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Killed Kernel.Proc.Sigsegv) -> ()
  | s -> Alcotest.failf "expected SIGSEGV, got %a" Kernel.Proc.pp_state s

(* --- fork & COW ----------------------------------------------------------- *)

let fork_cow_image () =
  (* parent writes 'P' to a data page after fork; child writes 'C'; each
     then reads its own value back and exits with it. *)
  Kernel.Image.build ~name:"cow"
    ~data:(fun ~lbl:_ -> [ L "cell"; Word32 0 ])
    ~code:(fun ~lbl ->
      [
        L "main";
        I (Mov_ri (EAX, 2));
        I (Int 0x80);
        I (Cmp_ri (EAX, 0));
        I (Jz (Lbl "child"));
        (* parent: wait for child, then write and read own copy *)
        I (Mov_rr (EBX, EAX));
        I (Mov_ri (EAX, 7));
        I (Int 0x80);
        I (Mov_ri (EBX, lbl "cell"));
        I (Mov_ri (EAX, 0x50));
        I (Store (EBX, 0, EAX));
        I (Load (ECX, EBX, 0));
        I (Mov_rr (EBX, ECX));
        I (Mov_ri (EAX, 1));
        I (Int 0x80);
        L "child";
        I (Mov_ri (EBX, lbl "cell"));
        I (Mov_ri (EAX, 0x43));
        I (Store (EBX, 0, EAX));
        I (Load (ECX, EBX, 0));
        I (Mov_rr (EBX, ECX));
        I (Mov_ri (EAX, 1));
        I (Int 0x80);
      ])
    ~entry:"main" ()

let test_fork_cow_isolation ~protection () =
  let k = Kernel.Os.create ~protection () in
  let parent = Kernel.Os.spawn k (fork_cow_image ()) in
  let reason = Kernel.Os.run k in
  Alcotest.(check bool) "finished" true (reason = Kernel.Os.All_exited);
  check_exited ~code:0x50 parent

let test_fork_cow_unprotected () = test_fork_cow_isolation ~protection:Kernel.Protection.none ()

let test_fork_cow_split () =
  test_fork_cow_isolation ~protection:(Split_memory.protection ()) ()

(* --- frame accounting ----------------------------------------------------- *)

let test_no_frame_leak () =
  List.iter
    (fun protection ->
      let k = Kernel.Os.create ~protection () in
      let _ = Kernel.Os.spawn k (fork_cow_image ()) in
      let _ = Kernel.Os.run k in
      (* the parent is a zombie (not reaped), its pages already freed *)
      Alcotest.(check int)
        ("frames freed under " ^ protection.Kernel.Protection.name)
        0
        (Kernel.Frame_alloc.in_use (Kernel.Os.alloc k)))
    [ Kernel.Protection.none; Split_memory.protection () ]

(* --- pipes and scheduling -------------------------------------------------- *)

let test_pipe_syscall () =
  (* create a pipe, push a byte through it, exit with that byte *)
  let image =
    Kernel.Image.build ~name:"piper"
      ~data:(fun ~lbl:_ -> [ L "fds"; Words [ 0; 0 ]; L "msg"; Bytes "Z"; L "buf"; Space 4 ])
      ~code:(fun ~lbl ->
        [
          L "main";
          I (Mov_ri (EAX, 42));
          I (Mov_ri (EBX, lbl "fds"));
          I (Int 0x80);
          I (Mov_ri (ESI, lbl "fds"));
          I (Load (EDI, ESI, 4));
          (* write fd *)
          I (Mov_ri (EAX, 4));
          I (Mov_rr (EBX, EDI));
          I (Mov_ri (ECX, lbl "msg"));
          I (Mov_ri (EDX, 1));
          I (Int 0x80);
          I (Mov_ri (ESI, lbl "fds"));
          I (Load (EBX, ESI, 0));
          (* read fd *)
          I (Mov_ri (EAX, 3));
          I (Mov_ri (ECX, lbl "buf"));
          I (Mov_ri (EDX, 1));
          I (Int 0x80);
          I (Mov_ri (ESI, lbl "buf"));
          I (Loadb (EBX, ESI, 0));
          I (Mov_ri (EAX, 1));
          I (Int 0x80);
        ])
      ~entry:"main" ()
  in
  let _, p, _ = run_image image in
  check_exited ~code:(Char.code 'Z') p

let test_blocking_read_then_feed () =
  let image =
    Kernel.Image.build ~name:"reader"
      ~data:(fun ~lbl:_ -> [ L "buf"; Space 16 ])
      ~code:(fun ~lbl ->
        Guest.sys_read_imm ~buf:(lbl "buf") ~len:16
        |> fun read ->
        (L "main" :: read)
        @ [ I (Mov_ri (ESI, lbl "buf")); I (Loadb (EBX, ESI, 0)); I (Mov_ri (EAX, 1)); I (Int 0x80) ])
      ~entry:"main" ()
  in
  let k = Kernel.Os.create ~protection:Kernel.Protection.none () in
  let p = Kernel.Os.spawn k image in
  Alcotest.(check bool) "blocks waiting input" true (Kernel.Os.run k = Kernel.Os.All_blocked);
  ignore (Kernel.Os.feed_stdin k p "Q");
  Alcotest.(check bool) "finishes" true (Kernel.Os.run k = Kernel.Os.All_exited);
  check_exited ~code:(Char.code 'Q') p

let test_eof_on_closed_stdin () =
  let image =
    Kernel.Image.build ~name:"eof"
      ~data:(fun ~lbl:_ -> [ L "buf"; Space 16 ])
      ~code:(fun ~lbl ->
        (L "main" :: Guest.sys_read_imm ~buf:(lbl "buf") ~len:16)
        @ [ I (Mov_rr (EBX, EAX)); I (Add_ri (EBX, 77)); I (Mov_ri (EAX, 1)); I (Int 0x80) ])
      ~entry:"main" ()
  in
  let k = Kernel.Os.create ~protection:Kernel.Protection.none () in
  let p = Kernel.Os.spawn k image in
  Kernel.Os.close_stdin k p;
  ignore (Kernel.Os.run k);
  check_exited ~code:77 p

let test_sigpipe () =
  (* writing to stdout after the driver closes the read side *)
  let image =
    Kernel.Image.build ~name:"sigpipe"
      ~data:(fun ~lbl:_ -> [ L "m"; Bytes "x" ])
      ~code:(fun ~lbl ->
        (L "main" :: Guest.sys_write_imm ~buf:(lbl "m") ~len:1 ()) @ Guest.sys_exit 0)
      ~entry:"main" ()
  in
  let k = Kernel.Os.create ~protection:Kernel.Protection.none () in
  let p = Kernel.Os.spawn k image in
  Kernel.Pipe.close_reader p.console_out;
  ignore (Kernel.Os.run k);
  match p.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Killed Kernel.Proc.Sigpipe) -> ()
  | s -> Alcotest.failf "expected SIGPIPE, got %a" Kernel.Proc.pp_state s

(* --- syscall misc ----------------------------------------------------------- *)

let test_brk_and_heap () =
  let image =
    Kernel.Image.build ~name:"brk"
      ~code:(fun ~lbl:_ ->
        [
          L "main";
          (* brk(0) returns the current break *)
          I (Mov_ri (EAX, 45));
          I (Mov_ri (EBX, 0));
          I (Int 0x80);
          I (Mov_rr (ESI, EAX));
          (* extend and write at the old break *)
          I (Mov_rr (EBX, ESI));
          I (Add_ri (EBX, 8192));
          I (Mov_ri (EAX, 45));
          I (Int 0x80);
          I (Mov_ri (EAX, 0x31));
          I (Storeb (ESI, 0, EAX));
          I (Loadb (EBX, ESI, 0));
          I (Mov_ri (EAX, 1));
          I (Int 0x80);
        ])
      ~entry:"main" ()
  in
  let _, p, _ = run_image image in
  check_exited ~code:0x31 p

let test_getpid_and_unknown_syscall () =
  let image =
    Kernel.Image.build ~name:"pid"
      ~code:(fun ~lbl:_ ->
        [
          L "main";
          I (Mov_ri (EAX, 999));
          (* unknown syscall: returns -ENOSYS, must not crash *)
          I (Int 0x80);
          I (Mov_ri (EAX, 20));
          I (Int 0x80);
          I (Mov_rr (EBX, EAX));
          I (Mov_ri (EAX, 1));
          I (Int 0x80);
        ])
      ~entry:"main" ()
  in
  let _, p, _ = run_image image in
  check_exited ~code:1 p (* first spawned process has pid 1 *)

let test_copy_user_across_pages () =
  let k = Kernel.Os.create ~protection:(Split_memory.protection ()) () in
  let p = Kernel.Os.spawn k (exit_image ()) in
  let addr = Kernel.Layout.heap_base + 4090 in
  let data = String.init 100 (fun i -> Char.chr (i land 0xFF)) in
  Kernel.Os.copy_to_user k p addr data;
  Alcotest.(check string) "roundtrip across page boundary" data
    (Kernel.Os.copy_from_user k p addr 100)

let test_read_cstring () =
  let k = Kernel.Os.create ~protection:Kernel.Protection.none () in
  let p = Kernel.Os.spawn k (exit_image ()) in
  let addr = Kernel.Layout.heap_base in
  Kernel.Os.copy_to_user k p addr "hello\000world";
  Alcotest.(check string) "stops at NUL" "hello" (Kernel.Os.read_cstring k p addr ~max:64)

(* The preview rendering the Sebek trace has always used: clean the whole
   buffer, then keep 40 bytes. *)
let old_preview s =
  let clean =
    String.map (fun c -> if Char.code c >= 32 && Char.code c < 127 then c else '.') s
  in
  if String.length clean > 40 then String.sub clean 0 40 ^ "..." else clean

let test_preview () =
  List.iter
    (fun n ->
      let s = String.init n (fun i -> Char.chr ((i * 37) land 0xFF)) in
      Alcotest.(check string) (Fmt.str "length %d" n) (old_preview s) (Kernel.Machine.preview s))
    [ 0; 40; 41 ];
  Alcotest.(check string) "empty" "" (Kernel.Machine.preview "");
  Alcotest.(check string) "41 bytes" (String.make 40 '.' ^ "...")
    (Kernel.Machine.preview (String.make 41 '\001'))

(* Observe mode: a Sebek-tagged process gets each syscall logged with its
   info text; an untagged process on the same machine gets nothing. *)
let test_sebek_trace_text () =
  let msg = "GET /\000\001\002\tindex.html HTTP/1.0\r\n\255 trailing bytes past forty" in
  let image =
    Kernel.Image.build ~name:"talker"
      ~data:(fun ~lbl:_ -> [ L "msg"; Bytes msg ])
      ~code:(fun ~lbl ->
        (L "main" :: Guest.sys_write_imm ~buf:(lbl "msg") ~len:(String.length msg) ())
        @ Guest.sys_exit 0)
      ~entry:"main" ()
  in
  let k = Kernel.Os.create ~protection:(Split_memory.protection ()) () in
  let observed = Kernel.Os.spawn k image in
  let quiet = Kernel.Os.spawn k image in
  observed.sebek_active <- true;
  ignore (Kernel.Os.run k : Kernel.Os.stop_reason);
  let traced pid =
    List.filter_map
      (function
        | Kernel.Event_log.Syscall_traced { pid = q; name; info } when q = pid -> Some (name, info)
        | _ -> None)
      (Kernel.Event_log.to_list (Kernel.Os.log k))
  in
  Alcotest.(check bool) "message is long" true (String.length msg > 40);
  Alcotest.(check (list (pair string string)))
    "observed write and exit"
    [ ("write", Fmt.str "fd=%d %S" 1 (old_preview msg)); ("exit", "0") ]
    (traced observed.pid);
  Alcotest.(check (list (pair string string))) "untagged process logs nothing" []
    (traced quiet.pid)

let suite =
  [
    Alcotest.test_case "exit code propagates" `Quick test_exit_code;
    Alcotest.test_case "tampered image rejected" `Quick test_signature_rejected;
    Alcotest.test_case "resealed image accepted" `Quick test_signature_reseal;
    Alcotest.test_case "verification can be disabled" `Quick test_signature_disabled;
    Alcotest.test_case "stack grows on demand" `Quick test_stack_growth;
    Alcotest.test_case "wild access segfaults" `Quick test_segfault_outside_regions;
    Alcotest.test_case "rodata write segfaults" `Quick test_rodata_write_faults;
    Alcotest.test_case "fork + COW isolation (stock)" `Quick test_fork_cow_unprotected;
    Alcotest.test_case "fork + COW isolation (split)" `Quick test_fork_cow_split;
    Alcotest.test_case "no frame leaks at exit" `Quick test_no_frame_leak;
    Alcotest.test_case "pipe syscall roundtrip" `Quick test_pipe_syscall;
    Alcotest.test_case "blocking read wakes on feed" `Quick test_blocking_read_then_feed;
    Alcotest.test_case "read EOF on closed stdin" `Quick test_eof_on_closed_stdin;
    Alcotest.test_case "sigpipe on readerless write" `Quick test_sigpipe;
    Alcotest.test_case "brk extends the heap" `Quick test_brk_and_heap;
    Alcotest.test_case "getpid, unknown syscall" `Quick test_getpid_and_unknown_syscall;
    Alcotest.test_case "kernel copies across pages" `Quick test_copy_user_across_pages;
    Alcotest.test_case "read_cstring stops at NUL" `Quick test_read_cstring;
    Alcotest.test_case "preview keeps 40 cleaned bytes" `Quick test_preview;
    Alcotest.test_case "sebek trace text only when observed" `Quick test_sebek_trace_text;
  ]
