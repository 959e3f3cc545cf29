(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md experiment index and EXPERIMENTS.md for the recorded
   paper-vs-measured comparison).

   Usage:
     dune exec bench/main.exe              run everything
     dune exec bench/main.exe -- fig3 fig5 run selected experiments
     dune exec bench/main.exe -- list      list experiment names *)

let experiments =
  [
    ("table1", "Table I: performance attributes", fun () -> Tables.table1 ());
    ("table2", "Table II: systems", fun () -> Tables.table2 ());
    ("table3", "Table III: software inventory", fun () -> Tables.table3 ());
    ("fig1", "Fig 1: FH vs traditional gA", fun () -> Fig1.run ());
    ("fig2", "Fig 2: workflow (real run)", fun () -> Fig2.run ());
    ("fig3", "Fig 3: strong scaling 48^3x64", fun () -> Scaling.fig3 ());
    ("fig4", "Fig 4: strong scaling Summit 96^3x144", fun () -> Scaling.fig4 ());
    ("fig5", "Fig 5: weak scaling Sierra", fun () -> Scaling.fig5 ());
    ("fig6", "Fig 6: weak scaling Summit/METAQ", fun () -> Scaling.fig6 ());
    ("fig7", "Fig 7: solver performance histogram", fun () -> Scaling.fig7 ());
    ("speedup", "Sec VII: machine-to-machine speedup", fun () -> Scaling.speedup ());
    ("metaq", "Sec V: bundling vs METAQ vs mpi_jm", fun () -> Jobs.metaq ());
    ("startup", "Sec V: startup at scale", fun () -> Jobs.startup ());
    ("placement", "Sec VII: GPU-granular placement", fun () -> Jobs.placement ());
    ("autotune", "Sec IV-V: autotuning demos", fun () -> Jobs.autotune ());
    ("ablation", "design-decision ablations", fun () -> Kernels.ablation ());
    ("solvers", "solver ablations + critical slowing", fun () -> Kernels.solver_ablation ());
    ("physics", "m_res, FH economics, mesons, gradient flow", fun () -> Physics_exp.run ());
    ("failures", "lump failure propagation", fun () -> Jobs.failures ());
    ("pipeline", "contraction co-scheduling", fun () -> Jobs.pipeline ());
  ]

let () =
  let args =
    Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--")
  in
  match args with
  | [ "list" ] ->
    List.iter (fun (name, desc, _) -> Printf.printf "%-10s %s\n" name desc) experiments
  | [] ->
    print_endline
      "Reproducing every table and figure of 'Simulating the weak death of\n\
       the neutron in a femtoscale universe with near-Exascale computing'\n\
       (Berkowitz et al., SC18). Real lattice QCD at laptop scale; CORAL\n\
       machines and job management simulated (see DESIGN.md).";
    List.iter (fun (_, _, f) -> f ()) experiments
  | names ->
    List.iter
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) experiments with
        | Some (_, _, f) -> f ()
        | None ->
          Printf.eprintf "unknown experiment '%s' (try 'list')\n" name;
          exit 1)
      names
