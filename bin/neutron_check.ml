(* neutron_check — CLI driver for the static verification & sanitizer
   subsystem (lib/check). Modes:

     neutron_check                 verify the shipped example artifacts
                                   (exit 1 on any error)
     neutron_check --fixture NAME  run one seeded defect fixture; the
                                   defect must be found, so the exit
                                   code is 1 when diagnostics contain
                                   errors (the expected outcome)
     neutron_check --selftest      run all seeded fixtures and require
                                   every one to be detected (exit 2 on
                                   a missed defect)
     neutron_check --rules         print the rule catalog
     neutron_check --list          list the seeded fixtures
     neutron_check --plan NAME     record a named catalog plan from a
                                   live run, print it and run the
                                   static analyzer (exit 1 on
                                   errors); NAME=list lists the 19
                                   recorded plans
     neutron_check --plan-dump NAME  print the plan's exact IR text
                                   (round-trips through Plan_ir.of_string)

   `dune build @check` runs the first and third modes over the build. *)

let quiet = ref false
let verbose = ref false
let mode = ref `Suite

let usage =
  "neutron_check [--fixture NAME | --selftest | --rules | --list | --plan \
   NAME | --plan-dump NAME] [--quiet] [--verbose]"

let spec =
  [
    ("--fixture", Arg.String (fun n -> mode := `Fixture n), "NAME run one seeded defect fixture");
    ("--selftest", Arg.Unit (fun () -> mode := `Selftest), " verify every seeded fixture is detected");
    ("--rules", Arg.Unit (fun () -> mode := `Rules), " print the rule catalog");
    ("--list", Arg.Unit (fun () -> mode := `List), " list the seeded fixtures");
    ("--plan", Arg.String (fun n -> mode := `Plan n), "NAME record and lint a catalog plan (NAME=list for the catalog)");
    ("--plan-dump", Arg.String (fun n -> mode := `Plan_dump n), "NAME print a plan's exact IR text");
    ("--quiet", Arg.Set quiet, " only print the summary and failures");
    ("--verbose", Arg.Set verbose, " also print info-level findings");
  ]

let print_diags ds =
  if not !quiet then
    List.iter
      (fun d -> print_endline ("   " ^ Check.Diagnostic.to_string d))
      (Check.Diagnostic.sort
         (if !verbose then ds
          else List.filter (fun d -> d.Check.Diagnostic.severity <> Check.Diagnostic.Info) ds))

let run_suite () =
  let report = Check.standard_suite () in
  if !quiet then begin
    List.iter
      (fun (pass, ds) ->
        List.iter
          (fun d ->
            if Check.Diagnostic.is_error d then
              Printf.printf "%s: %s\n" pass (Check.Diagnostic.to_string d))
          ds)
      report;
    print_endline (Check.Diagnostic.summary report)
  end
  else Check.Diagnostic.print_report ~verbose:!verbose report;
  exit (Check.Diagnostic.exit_code report)

let run_fixture name =
  match Check.Fixtures.find name with
  | None ->
    Printf.eprintf "unknown fixture %S; try --list\n" name;
    exit 2
  | Some f ->
    Printf.printf "fixture %s: %s\n" f.Check.Fixtures.name f.Check.Fixtures.defect;
    let ds = f.Check.Fixtures.run () in
    print_diags ds;
    Printf.printf "%d error(s), %d warning(s)\n" (Check.Diagnostic.count_errors ds)
      (Check.Diagnostic.count_warnings ds);
    (* finding the seeded defect is the point: the expected rule firing
       (as error or warning — some defect classes, like HALO012's
       wasted copies, are warnings by design) → exit 1 *)
    let fired =
      List.exists
        (fun (d : Check.Diagnostic.t) ->
          d.Check.Diagnostic.rule = f.Check.Fixtures.expect
          && d.Check.Diagnostic.severity <> Check.Diagnostic.Info)
        ds
    in
    exit (if fired then 1 else 0)

let run_selftest () =
  let rows = Check.selftest () in
  let missed = ref 0 in
  List.iter
    (fun ((f : Check.Fixtures.t), fired, detected) ->
      if not detected then incr missed;
      if (not !quiet) || not detected then
        Printf.printf "%-16s %-8s expects %-8s fired [%s]  %s\n" f.Check.Fixtures.name
          (if detected then "DETECTED" else "MISSED")
          f.Check.Fixtures.expect
          (String.concat " " fired)
          f.Check.Fixtures.defect)
    rows;
  Printf.printf "selftest: %d/%d seeded defects detected\n"
    (List.length rows - !missed)
    (List.length rows);
  exit (if !missed > 0 then 2 else 0)

let plan_catalog () =
  List.iter
    (fun (name, build) ->
      let p = build () in
      Printf.printf "%-16s %3d step(s), %d buffer(s), n=%d\n" name
        (List.length p.Check.Plan_ir.steps)
        (List.length p.Check.Plan_ir.buffers)
        p.Check.Plan_ir.n)
    Check.Plan_record.catalog;
  exit 0

let find_plan name =
  match Check.Plan_record.find name with
  | Some build -> build ()
  | None ->
    Printf.eprintf "unknown plan %S; try --plan list\n" name;
    exit 2

let run_plan name =
  if name = "list" then plan_catalog ();
  let p = find_plan name in
  if not !quiet then print_string (Check.Plan_ir.to_string p);
  let ds = Check.Plan_check.verify p in
  print_diags ds;
  (* Belt and braces on PLAN005: even if the diagnostic pass were ever
     softened, a model-priced plan whose sweep total disagrees with
     Perf_model fails the run outright — the gap is derived from the
     plan, never whitelisted. *)
  let gap = Check.Plan_check.sweep_gap p in
  (match gap with
  | Some g when g <> 0 ->
    Printf.printf "plan %s: sweep gap %+d vs Perf_model.blas1_sweeps\n" name g
  | _ -> ());
  Printf.printf "plan %s: %d error(s), %d warning(s)\n" name
    (Check.Diagnostic.count_errors ds)
    (Check.Diagnostic.count_warnings ds);
  exit
    (if Check.Diagnostic.has_errors ds || gap <> None && gap <> Some 0 then 1
     else 0)

let run_plan_dump name =
  if name = "list" then plan_catalog ();
  let p = find_plan name in
  let text = Check.Plan_ir.to_string p in
  (* the dump must round-trip: it is the interchange format *)
  (match Check.Plan_ir.of_string text with
  | Ok p' when Check.Plan_ir.to_string p' = text -> ()
  | Ok _ ->
    Printf.eprintf "internal error: %s does not round-trip exactly\n" name;
    exit 2
  | Error e ->
    Printf.eprintf "internal error: %s does not parse back: %s\n" name e;
    exit 2);
  print_string text;
  exit 0

let run_rules () =
  List.iter
    (fun (pass, rules) ->
      Printf.printf "%s:\n" pass;
      List.iter (fun (id, desc) -> Printf.printf "  %-8s %s\n" id desc) rules)
    Check.all_rules;
  exit 0

let run_list () =
  List.iter
    (fun (f : Check.Fixtures.t) ->
      Printf.printf "%-16s %-8s %s\n" f.Check.Fixtures.name f.Check.Fixtures.expect
        f.Check.Fixtures.defect)
    Check.Fixtures.all;
  exit 0

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match !mode with
  | `Suite -> run_suite ()
  | `Fixture n -> run_fixture n
  | `Selftest -> run_selftest ()
  | `Rules -> run_rules ()
  | `List -> run_list ()
  | `Plan n -> run_plan n
  | `Plan_dump n -> run_plan_dump n
