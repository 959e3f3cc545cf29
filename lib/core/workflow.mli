(** The application workflow of Fig 2, run for real at laptop scale:
    gauge generation → domain-wall solves (plus FH solves) →
    contractions → I/O → analysis, with per-stage timing to reproduce
    the paper's 96.5/3/0.5 budget. *)

type spec = {
  dims : int array;
  l5 : int;
  m5 : float;
  alpha : float;
  mass : float;
  beta : float;
  n_configs : int;
  n_thermalize : int;
  n_decorrelate : int;
  tol : float;
  precision : Solver.Dwf_solve.precision;
  seed : int;
  io_path : string option;
}

val default_spec : spec

val validate_spec : spec -> string list
(** Structural problems making the spec unrunnable (empty = valid):
    dims arity and even extents ≥ 2, positive physics parameters, run
    counts, tolerance, mixed-precision block divisibility. [run]
    raises [Invalid_argument] listing them when non-empty. *)

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
  pion_mass : float * float;
  geff : float array;
  total_flops : float;
  ocaml_flops_per_s : float;
}

val run : ?spec:spec -> unit -> result

val time_fractions : timing -> float * float * float
(** (propagators, contractions, I/O) fractions of the measured budget
    (gauge generation excluded, as in the paper). *)
