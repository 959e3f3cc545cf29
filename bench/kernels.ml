(* Design-decision and solver ablations: whole solves compared by
   iteration count, flops and wall time (one run each). Kernel timings
   with a spread come from benchmark/. *)

module Field = Linalg.Field
module Ascii = Util.Ascii

let ablation () =
  Ascii.banner "Ablations: design decisions measured";
  (* 1. double vs mixed-precision CG on a real solve *)
  let geom = Lattice.Geometry.create [| 4; 4; 4; 8 |] in
  let gauge = Lattice.Gauge.warm geom (Util.Rng.create 22) ~eps:0.4 in
  let params = Dirac.Mobius.mobius ~l5:6 ~m5:1.8 ~alpha:1.5 ~mass:0.1 in
  let solver =
    Solver.Dwf_solve.create params geom (Lattice.Gauge.with_antiperiodic_time gauge)
  in
  let rhs = Field.create (Solver.Dwf_solve.field_length solver) in
  Bigarray.Array1.set rhs 0 1.;
  let _, st_d = Solver.Dwf_solve.solve ~tol:1e-8 solver ~rhs in
  let _, st_m =
    Solver.Dwf_solve.solve
      ~precision:(Solver.Dwf_solve.Mixed Solver.Mixed.default_config) ~tol:1e-8
      solver ~rhs
  in
  Ascii.print_table
    ~header:[ "solver"; "iterations"; "reliable updates"; "wall"; "flops" ]
    [
      [ "double CG"; string_of_int st_d.Solver.Cg.iterations; "-";
        Ascii.seconds st_d.Solver.Cg.seconds; Ascii.si_float st_d.Solver.Cg.flops ];
      [ "double-half CG"; string_of_int st_m.Solver.Cg.iterations;
        string_of_int st_m.Solver.Cg.reliable_updates;
        Ascii.seconds st_m.Solver.Cg.seconds; Ascii.si_float st_m.Solver.Cg.flops ];
    ];
  print_endline
    "(on a GPU the half-precision storage doubles the effective bandwidth —\n\
     here it exercises the identical reliable-update control flow)";
  (* 2. red-black preconditioning vs unpreconditioned normal equations *)
  let _, st_eo = Solver.Dwf_solve.solve ~tol:1e-8 solver ~rhs in
  let _, st_full = Solver.Dwf_solve.solve_full ~tol:1e-8 solver ~rhs in
  Ascii.print_table
    ~header:[ "operator"; "iterations"; "flops" ]
    [
      [ "red-black Schur (paper)"; string_of_int st_eo.Solver.Cg.iterations;
        Ascii.si_float st_eo.Solver.Cg.flops ];
      [ "unpreconditioned D^dag D"; string_of_int st_full.Solver.Cg.iterations;
        Ascii.si_float st_full.Solver.Cg.flops ];
    ]

(* Solver ablations with physics content: BiCGStab vs CGNE on the
   Mobius operator, and critical slowing down (condition number and CG
   iterations vs quark mass). *)
let solver_ablation () =
  Ascii.banner "Ablations: solver algorithms and critical slowing down";
  let geom = Lattice.Geometry.create [| 4; 4; 4; 8 |] in
  let gauge = Lattice.Gauge.warm geom (Util.Rng.create 23) ~eps:0.3 in
  let fgauge = Lattice.Gauge.with_antiperiodic_time gauge in
  (* 1. BiCGStab directly on D vs CG on the Schur normal equations *)
  let params = Dirac.Mobius.mobius ~l5:6 ~m5:1.8 ~alpha:1.5 ~mass:0.1 in
  let solver = Solver.Dwf_solve.create params geom fgauge in
  let rhs = Field.create (Solver.Dwf_solve.field_length solver) in
  Bigarray.Array1.set rhs 0 1.;
  let _, st_cg = Solver.Dwf_solve.solve ~tol:1e-8 solver ~rhs in
  let d_full = Dirac.Mobius.of_geometry params geom fgauge in
  let apply src dst = Dirac.Mobius.apply d_full ~src ~dst in
  let _, st_bi =
    Solver.Bicgstab.solve ~apply ~b:rhs ~tol:1e-8 ~max_iter:20_000
      ~flops_per_apply:1. ()
  in
  Ascii.print_table
    ~header:[ "solver"; "iterations"; "converged"; "wall" ]
    [
      [ "red-black CGNE (paper)"; string_of_int st_cg.Solver.Cg.iterations;
        string_of_bool st_cg.Solver.Cg.converged; Ascii.seconds st_cg.Solver.Cg.seconds ];
      [ "BiCGStab on D (5D, unpreconditioned)"; string_of_int st_bi.Solver.Cg.iterations;
        string_of_bool st_bi.Solver.Cg.converged; Ascii.seconds st_bi.Solver.Cg.seconds ];
    ];
  (* 2. critical slowing down: condition number & iterations vs mass *)
  print_endline "\ncritical slowing down of the Schur normal operator vs quark mass:";
  let rows =
    List.map
      (fun mass ->
        let p = Dirac.Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass in
        let s = Solver.Dwf_solve.create p geom fgauge in
        let rhs = Field.create (Solver.Dwf_solve.field_length s) in
        Bigarray.Array1.set rhs 0 1.;
        let _, st = Solver.Dwf_solve.solve ~tol:1e-8 s ~rhs in
        let eo = Dirac.Mobius.of_geometry_eo p geom fgauge in
        let n = Dirac.Mobius.eo_field_length eo in
        let apply src dst = Dirac.Mobius.apply_schur_normal eo ~src ~dst in
        let est = Solver.Eigen.condition_number ~apply ~n () in
        (mass, st.Solver.Cg.iterations, est))
      [ 0.4; 0.2; 0.1; 0.05 ]
  in
  Ascii.print_table
    ~header:[ "quark mass"; "CG iterations"; "condition number"; "CG bound" ]
    (List.map
       (fun (m, it, est) ->
         [
           Printf.sprintf "%.2f" m;
           string_of_int it;
           Printf.sprintf "%.1f" est.Solver.Eigen.condition_number;
           Printf.sprintf "%.0f"
             (Solver.Eigen.cg_iteration_bound
                ~condition_number:est.Solver.Eigen.condition_number ~tol:1e-8);
         ])
       rows);
  print_endline
    "lighter quarks -> worse conditioning -> more iterations: the cost\n\
     driver that makes physical-point lattice QCD need these machines."
