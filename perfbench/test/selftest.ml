(* The benchmark's self-tests: every workload at its small size, in both
   modes, must check out with no failed operation, emit exactly the metrics
   BENCHMARK.json declares, and reproduce the untraced counters when
   traced. *)

open Perfbench
module J = Obs.Json

let manifest =
  lazy
    (let ic = open_in_bin "../../BENCHMARK.json" in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     match J.of_string s with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e))

let list key =
  match J.member key (Lazy.force manifest) with
  | Some (J.List xs) -> xs
  | _ -> failwith ("BENCHMARK.json: no list " ^ key)

let str key j = Option.get (Option.bind (J.member key j) J.to_str)
let declared key = List.map (fun m -> (str "name" m, str "unit" m)) (list key)

let run kind ~trace =
  let buf = Buffer.create 4096 in
  let out = Format.formatter_of_buffer buf in
  let o =
    Bench.run ~out
      {
        kind;
        seed = 3;
        seconds = 0.01;
        trace;
        size = Workloads.small;
        rev = "test";
        flambda = "test";
      }
  in
  Format.pp_print_flush out ();
  (o, Buffer.contents buf)

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

let check_result kind ~trace () =
  let o, printed = run kind ~trace in
  Alcotest.(check int) "failed operations" 0 o.tally.failed;
  Alcotest.(check bool) "attempted some" true (o.tally.attempted > 0);
  let want = declared (if trace then "per_layer" else "end_to_end") in
  let units = if trace then Bench.per_layer else Bench.end_to_end in
  Alcotest.(check (list (pair string string)))
    "metric names and units" want
    (List.map (fun (k, _) -> (k, List.assoc k units)) o.metrics);
  List.iter
    (fun (k, v) ->
      Alcotest.(check bool) (k ^ " finite") true (Float.is_finite v);
      if not trace then Alcotest.(check bool) (k ^ " non-zero") true (v > 0.0))
    o.metrics;
  (match J.of_string (last_line printed) with
  | Ok (J.Obj fields) ->
    Alcotest.(check (list string))
      "result keys"
      [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "last line is not a JSON object");
  if trace then begin
    let r = o.measured in
    Alcotest.(check bool) "traced runs happened" true (r.traced <> []);
    let reference = (List.hd r.plain).counters in
    List.iter
      (fun (s : Bench.sample) ->
        Alcotest.(check bool) "traced counters = untraced" true (s.counters = reference))
      (r.plain @ r.traced)
  end

let workloads_match () =
  Alcotest.(check (list string))
    "workload names"
    (List.map (fun w -> str "name" w) (list "workloads"))
    (List.map fst Workloads.all)

let () =
  Alcotest.run "perfbench"
    [
      ("manifest", [ Alcotest.test_case "workloads match BENCHMARK.json" `Quick workloads_match ]);
      ( "workloads",
        List.concat_map
          (fun (name, kind) ->
            [
              Alcotest.test_case (name ^ " end-to-end") `Quick (check_result kind ~trace:false);
              Alcotest.test_case (name ^ " traced") `Quick (check_result kind ~trace:true);
            ])
          Workloads.all );
    ]
