(* The application workflow of Fig 2, run for real at laptop scale:

     load/generate gluonic field -> solve propagators (and the extra
     Feynman-Hellmann solves) -> write propagators -> contract ->
     write results -> analyze

   Every stage is timed so the bench can reproduce the paper's budget
   (propagators ~96.5%, contractions ~3%, I/O ~0.5% — Sec. VI/VII). *)

module Geometry = Lattice.Geometry
module Gauge = Lattice.Gauge
module Mobius = Dirac.Mobius

type spec = {
  dims : int array;
  l5 : int;
  m5 : float;
  alpha : float;  (* Mobius scale; 1.0 = Shamir *)
  mass : float;
  beta : float;
  n_configs : int;
  n_thermalize : int;
  n_decorrelate : int;
  tol : float;
  precision : Solver.Dwf_solve.precision;
  seed : int;
  io_path : string option;  (* write an H5lite archive per run *)
}

let default_spec =
  {
    dims = [| 4; 4; 4; 8 |];
    l5 = 6;
    m5 = 1.8;
    alpha = 1.5;
    mass = 0.1;
    beta = 5.7;
    n_configs = 3;
    n_thermalize = 20;
    n_decorrelate = 5;
    tol = 1e-8;
    precision = Solver.Dwf_solve.Double;
    seed = 20_180_920;
    io_path = None;
  }

type timing = {
  mutable gauge_s : float;
  mutable propagator_s : float;
  mutable contraction_s : float;
  mutable io_s : float;
}

type config_measurement = {
  plaquette : float;
  pion : float array;
  proton : float array;
  proton_fh : float array;
  solver_iterations : int;
  solver_flops : float;
}

type result = {
  spec : spec;
  measurements : config_measurement array;
  timing : timing;
  pion_mass : float * float;  (* effective mass plateau and spread *)
  geff : float array;  (* ensemble-mean effective axial coupling *)
  total_flops : float;
  ocaml_flops_per_s : float;
}

(* Basic structural validity of a spec — the invariants the stages
   below assume (Geometry.create, Heatbath.generate, the mixed-solver
   codec). Returns human-readable problems, empty when the spec is
   runnable; [run] refuses invalid specs. Richer, advisory checking
   (parity warnings, tolerance ordering) lives in [Check.Spec_check]. *)
let validate_spec s =
  let problems = ref [] in
  let add m = problems := m :: !problems in
  if Array.length s.dims <> 4 then
    add (Printf.sprintf "dims must have 4 extents (got %d)" (Array.length s.dims))
  else begin
    Array.iteri
      (fun mu d -> if d < 2 then add (Printf.sprintf "dims.(%d) = %d < 2" mu d))
      s.dims;
    let volume = Array.fold_left ( * ) 1 s.dims in
    if volume mod 2 <> 0 then
      add (Printf.sprintf "lattice volume %d must be even (checkerboarding)" volume)
  end;
  if s.l5 < 1 then add (Printf.sprintf "l5 = %d must be >= 1" s.l5);
  if not (s.m5 > 0.) then add (Printf.sprintf "m5 = %g must be positive" s.m5);
  if not (s.alpha > 0.) then add (Printf.sprintf "alpha = %g must be positive" s.alpha);
  if not (s.mass > 0.) then add (Printf.sprintf "mass = %g must be positive" s.mass);
  if not (s.beta > 0.) then add (Printf.sprintf "beta = %g must be positive" s.beta);
  if s.n_configs < 1 then add (Printf.sprintf "n_configs = %d must be >= 1" s.n_configs);
  if s.n_thermalize < 0 then add "n_thermalize must be >= 0";
  if s.n_decorrelate < 0 then add "n_decorrelate must be >= 0";
  if not (s.tol > 0. && Float.is_finite s.tol) then
    add (Printf.sprintf "tol = %g must be positive and finite" s.tol);
  (match s.io_path with
  | Some "" -> add "io_path must not be empty"
  | _ -> ());
  (match s.precision with
  | Solver.Dwf_solve.Double -> ()
  | Solver.Dwf_solve.Mixed c ->
    if Array.length s.dims = 4 then begin
      (* the mixed inner solve runs on half-checkerboard 5D fields *)
      let n = Array.fold_left ( * ) 1 s.dims / 2 * s.l5 * 24 in
      match Solver.Mixed.validate_config ~n c with
      | Ok () -> ()
      | Error m -> add ("mixed-precision config: " ^ m)
    end);
  List.rev !problems

let time_into acc f =
  let t0 = Util.Clock.now_s () in
  let v = f () in
  acc := !acc +. (Util.Clock.now_s () -. t0);
  v

(* Measure one configuration: 24 solves + contractions. *)
let measure_config spec ~timing gauge =
  let geom = Gauge.geom gauge in
  let params = Mobius.mobius ~l5:spec.l5 ~m5:spec.m5 ~alpha:spec.alpha ~mass:spec.mass in
  let fermion_gauge = Gauge.with_antiperiodic_time gauge in
  let solver = Solver.Dwf_solve.create params geom fermion_gauge in
  let t_prop = ref 0. and t_contract = ref 0. in
  let prop =
    time_into t_prop (fun () ->
        Physics.Propagator.point_propagator ~precision:spec.precision
          ~tol:spec.tol solver ~src_site:0)
  in
  let fh_prop =
    time_into t_prop (fun () ->
        Physics.Fh.fh_propagator ~precision:spec.precision ~tol:spec.tol solver prop)
  in
  let pion = time_into t_contract (fun () -> Physics.Contract.pion prop) in
  let proton =
    time_into t_contract (fun () -> Physics.Contract.proton ~up:prop ~down:prop ())
  in
  let proton_fh =
    time_into t_contract (fun () ->
        Physics.Fh.fh_proton_correlator ~up:prop ~down:prop ~fh_up:fh_prop
          ~fh_down:fh_prop)
  in
  timing.propagator_s <- timing.propagator_s +. !t_prop;
  timing.contraction_s <- timing.contraction_s +. !t_contract;
  {
    plaquette = Gauge.average_plaquette gauge;
    pion;
    proton;
    proton_fh;
    solver_iterations =
      Physics.Propagator.total_iterations prop
      + Physics.Propagator.total_iterations fh_prop;
    solver_flops =
      Physics.Propagator.total_flops prop +. Physics.Propagator.total_flops fh_prop;
  }

let run ?(spec = default_spec) () =
  (match validate_spec spec with
  | [] -> ()
  | ps -> invalid_arg ("Workflow.run: invalid spec: " ^ String.concat "; " ps));
  let rng = Util.Rng.create spec.seed in
  let geom = Geometry.create spec.dims in
  let timing = { gauge_s = 0.; propagator_s = 0.; contraction_s = 0.; io_s = 0. } in
  (* 1. gluonic field configurations (Monte Carlo) *)
  let t_gauge = ref 0. in
  let configs, _history =
    time_into t_gauge (fun () ->
        Lattice.Heatbath.generate rng
          {
            Lattice.Heatbath.beta = spec.beta;
            n_thermalize = spec.n_thermalize;
            n_decorrelate = spec.n_decorrelate;
            n_overrelax = 2;
          }
          geom ~n_configs:spec.n_configs)
  in
  timing.gauge_s <- !t_gauge;
  (* 2-4. per-configuration solves and contractions *)
  let measurements =
    Array.map (fun g -> measure_config spec ~timing g) configs
  in
  (* 5. I/O: archive correlators (and optionally reload to verify) *)
  (match spec.io_path with
  | None -> ()
  | Some path ->
    let t_io = ref 0. in
    time_into t_io (fun () ->
        let h5 = Qio.H5lite.create () in
        Array.iteri
          (fun i m ->
            Qio.H5lite.write_correlator h5
              ~path:(Printf.sprintf "cfg%d/pion" i)
              m.pion;
            Qio.H5lite.write_correlator h5
              ~path:(Printf.sprintf "cfg%d/proton" i)
              m.proton;
            Qio.H5lite.write_correlator h5
              ~path:(Printf.sprintf "cfg%d/proton_fh" i)
              m.proton_fh)
          measurements;
        Qio.H5lite.save h5 path);
    timing.io_s <- timing.io_s +. !t_io);
  (* analysis *)
  let nt = Geometry.time_extent geom in
  let pion_mean =
    Array.init nt (fun t ->
        Util.Stats.mean (Array.map (fun m -> m.pion.(t)) measurements))
  in
  let m_eff = Physics.Analysis.effective_mass pion_mean in
  let mid = Array.sub m_eff (nt / 4) (max 1 (nt / 4)) in
  let pion_mass = (Util.Stats.mean mid, Util.Stats.std ~ddof:0 mid) in
  let c2_mean =
    Array.init nt (fun t ->
        Util.Stats.mean (Array.map (fun m -> m.proton.(t)) measurements))
  in
  let cfh_mean =
    Array.init nt (fun t ->
        Util.Stats.mean (Array.map (fun m -> m.proton_fh.(t)) measurements))
  in
  let geff = Physics.Fh.effective_coupling ~c2:c2_mean ~c_fh:cfh_mean in
  let total_flops =
    Array.fold_left (fun acc m -> acc +. m.solver_flops) 0. measurements
  in
  {
    spec;
    measurements;
    timing;
    pion_mass;
    geff;
    total_flops;
    ocaml_flops_per_s =
      (if timing.propagator_s > 0. then total_flops /. timing.propagator_s else 0.);
  }

let time_fractions timing =
  let total =
    timing.propagator_s +. timing.contraction_s +. timing.io_s
  in
  if total <= 0. then (0., 0., 0.)
  else
    ( timing.propagator_s /. total,
      timing.contraction_s /. total,
      timing.io_s /. total )
