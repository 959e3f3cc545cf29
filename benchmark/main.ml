(* Campaign benchmark entry point.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
       one workload in this process; the last line of stdout is the
       JSON result, the exit code is 1 when a correctness gate failed
     main.exe run   [--seed N] [--seconds S]
     main.exe trace [--seed N] [--seconds S]
       every workload, each in its own child process, untraced (run)
       or traced (trace) *)

open Neutron_bench

let usage =
  "usage: main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
  \       main.exe (run | trace) [--seed N] [--seconds S]"

let out_dir = ".bench_out"

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result (r : Workloads.result) ~seed =
  Printf.printf "# workload %s  seed %d  lanes %d\n" r.workload seed r.lanes;
  List.iter (fun (name, p, f) -> Printf.printf "gate %-20s passed %d  failed %d\n" name p f) r.gates;
  Printf.printf "fail_frac %.17g ratio (%d failed of %d attempted)\n"
    (float_of_int r.failed /. float_of_int r.attempted)
    r.failed r.attempted;
  List.iter
    (fun (name, value, unit) ->
      match List.assoc_opt name r.samples with
      | Some xs ->
        let s = Timing.summarize xs in
        Printf.printf "%-24s %.6g %s  n %d  p25 %.6g  p75 %.6g  iqr %.1f%%  p%g %.6g  max %.6g  samples %s\n"
          name value unit s.n s.p25 s.p75
          (100. *. Timing.iqr_frac xs)
          (Timing.reported_percentile s.n) s.reported s.max
          (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") xs)))
      | None -> Printf.printf "%-24s %.6g %s\n" name value unit)
    r.metrics;
  let metrics =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)

let run_one ~workload ~seed ~seconds ~trace =
  match Workloads.run Workloads.full ~workload ~seed ~seconds ~trace ~out_dir with
  | r ->
    print_result r ~seed;
    if r.failed = 0 then 0 else 1
  | exception e ->
    Printf.eprintf "%s: %s\n%!" workload (Printexc.to_string e);
    2

(* One child process per workload: a fresh heap, its own peak RSS. *)
let run_all ~seed ~seconds ~trace =
  List.fold_left
    (fun worst workload ->
      let args =
        [|
          Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
          "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
        |]
      in
      let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
      let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 2 in
      max worst code)
    0 Workloads.names

let () =
  let seed = ref 20180920 and seconds = ref 20. and workload = ref "" and trace = ref 0 in
  let mode = ref "" in
  let specs =
    [
      ("--seed", Arg.Set_int seed, "N  input seed (default 20180920)");
      ("--seconds", Arg.Set_float seconds, "S  measured window per workload (default 20)");
      ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " Workloads.names);
      ("--trace", Arg.Set_int trace, "0|1  traced run (per-layer metrics)");
    ]
  in
  let bad msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun m -> mode := m) usage with
  | Arg.Bad msg -> bad msg
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  if !seconds < 0. then bad "--seconds must be >= 0";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let code =
    match (!mode, !workload) with
    | "", w when List.mem w Workloads.names ->
      run_one ~workload:w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    | ("run" | "trace"), "" -> run_all ~seed:!seed ~seconds:!seconds ~trace:(!mode = "trace")
    | "", "" -> bad "give --workload or a mode"
    | "", w -> bad ("unknown workload " ^ w)
    | m, _ -> bad ("unknown mode " ^ m)
  in
  exit code
