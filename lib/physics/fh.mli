(** The Feynman–Hellmann method [Bouchard et al., PRD 96 014504] — the
    paper's physics-algorithm contribution — plus the sequential
    (fixed-insertion-time) traditional baseline it replaces. *)

val axial_matrix : Linalg.Cplx.t array array
(** A3 = γz·γ5. *)

val fh_propagator :
  ?precision:Solver.Dwf_solve.precision ->
  ?tol:float ->
  Solver.Dwf_solve.t ->
  Propagator.t ->
  Propagator.t
(** One extra solve per column against the current-inserted propagator:
    D ψ_FH = Γ q, insertion summed over all of spacetime. The result's
    [stats] are these solves', one per column. *)

val fh_proton_correlator :
  up:Propagator.t ->
  down:Propagator.t ->
  fh_up:Propagator.t ->
  fh_down:Propagator.t ->
  float array
(** dC/dλ for the isovector axial current (u − d), polarized projector.
    Purely imaginary in these conventions; returns the imaginary part. *)

val effective_coupling : c2:float array -> c_fh:float array -> float array
(** g_eff(t) = R(t+1) − R(t) with R = C_FH/C. *)

val restrict_timeslice :
  Lattice.Geometry.t -> tau:int -> Linalg.Field.t -> Linalg.Field.t

val sequential_propagator :
  ?tol:float ->
  Solver.Dwf_solve.t ->
  tau:int ->
  Propagator.t ->
  Propagator.t
(** Insertion restricted to timeslice [tau], solved in double
    precision: ONE SOLVE PER τ — the
    traditional cost FH eliminates. By linearity Σ_τ ψ_τ = ψ_FH
    (checked exactly by the test suite). The result's [stats] are
    these solves'. *)
