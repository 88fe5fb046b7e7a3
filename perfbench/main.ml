(* Benchmark entry point; see README.md. Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--rev REV] [--flambda BOOL] *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  let rev = ref "unknown" and flambda = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads in BENCHMARK.json");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer pass");
      ("--rev", Arg.Set_string rev, "REV source revision, recorded in the provenance");
      ("--flambda", Arg.Set_string flambda, "BOOL compiler flambda flag, recorded");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    Arg.usage spec usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> fail ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> fail msg
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  let kind =
    match Perfbench.Workloads.of_name !workload with
    | Some k -> k
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seed < 0 then fail "--seed must be given and >= 0";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  ignore
    (Perfbench.Bench.run
       {
         kind;
         seed = !seed;
         seconds = !seconds;
         trace = !trace = 1;
         size = Perfbench.Workloads.full;
         rev = !rev;
         flambda = !flambda;
       })
