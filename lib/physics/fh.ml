(* The Feynman-Hellmann method [Bouchard et al., PRD 96 014504] — the
   paper's physics-algorithm contribution. Instead of fixed sink-
   separation three-point functions, solve once more against the
   current-inserted propagator:

     D psi_FH = Gamma q        (Gamma = gamma_z gamma5 for the axial
                                charge; insertion summed over ALL of
                                spacetime by the solve itself)

   and form C_FH(t) by substituting psi_FH for one quark leg in the
   two-point contraction. The ratio R(t) = C_FH(t)/C(t) then grows
   linearly in t with slope g_A, so every source-sink separation is
   measured from a single extra solve — "all the temporal distances
   for the cost of one temporal distance in the traditional method". *)

module Field = Linalg.Field
module Cplx = Linalg.Cplx
module Gamma = Dirac.Gamma

(* A3 = gamma_z gamma5 *)
let axial_matrix = Gamma.mat_mul (Gamma.matrix 2) Gamma.gamma5_matrix

(* FH (current-inserted) propagator: one extra solve per column. *)
let fh_propagator ?precision ?tol (solver : Solver.Dwf_solve.t)
    (prop : Propagator.t) =
  let geom = Solver.Dwf_solve.geom_of solver in
  let l5 = (Solver.Dwf_solve.params_of solver).Dirac.Mobius.l5 in
  Propagator.map prop (fun column ->
      let inserted = Source.apply_spin_matrix axial_matrix column in
      let rhs = Source.to_5d ~l5 geom inserted in
      let x5, st = Solver.Dwf_solve.solve ?precision ?tol solver ~rhs in
      (Source.to_4d ~l5 geom x5, st))

(* d/dlambda of the proton correlator for the isovector axial current
   (u-bar A u - d-bar A d): the FH leg substitutes each u line (two
   Wick slots) minus the d line. Uses the polarized projector. In the
   DeGrand-Rossi Euclidean conventions the gamma_z gamma5 insertion
   makes this correlator purely imaginary; the physical coupling is
   its imaginary part (equivalently, the current carries a factor i). *)
let fh_proton_correlator ~(up : Propagator.t) ~(down : Propagator.t)
    ~(fh_up : Propagator.t) ~(fh_down : Propagator.t) : float array =
  let p = Contract.polarized_projector in
  let c_u1 = Contract.proton_general ~projector:p ~u1:fh_up ~u2:up ~d:down in
  let c_u2 = Contract.proton_general ~projector:p ~u1:up ~u2:fh_up ~d:down in
  let c_d = Contract.proton_general ~projector:p ~u1:up ~u2:up ~d:fh_down in
  Array.init (Array.length c_u1) (fun t ->
      Cplx.im (Cplx.sub (Cplx.add c_u1.(t) c_u2.(t)) c_d.(t)))

(* Effective coupling from the FH ratio:
     R(t) = C_FH(t) / C(t),   g_eff(t) = R(t+1) - R(t). *)
let effective_coupling ~(c2 : float array) ~(c_fh : float array) : float array =
  let nt = Array.length c2 in
  Array.init (nt - 1) (fun t ->
      let r1 = c_fh.(t + 1) /. c2.(t + 1) in
      let r0 = c_fh.(t) /. c2.(t) in
      r1 -. r0)

(* ---- the traditional baseline, implemented for real ----

   The fixed-insertion-time method: restrict the current to one
   timeslice tau and solve

     D psi_tau = Gamma delta_{t,tau} q

   giving the three-point function C3(tau, t_sep) when contracted at
   sink time t_sep. One SOLVE PER INSERTION TIME — this is exactly the
   cost the FH method eliminates ("all the temporal distances for the
   cost of one temporal distance in the traditional method"): by
   linearity, sum_tau psi_tau = psi_FH, which the test suite checks
   exactly. *)

(* Zero a 4D field outside timeslice [tau]. *)
let restrict_timeslice geom ~tau (v : Field.t) : Field.t =
  let out = Field.create (Field.length v) in
  Lattice.Geometry.iter_sites geom (fun site ->
      if (Lattice.Geometry.coords geom site).(3) = tau then
        for k = 0 to Gamma.floats_per_site - 1 do
          Bigarray.Array1.set out ((site * Gamma.floats_per_site) + k)
            (Bigarray.Array1.get v ((site * Gamma.floats_per_site) + k))
        done);
  out

(* Current-inserted propagator with the insertion restricted to
   timeslice [tau]. *)
let sequential_propagator ?tol (solver : Solver.Dwf_solve.t) ~tau
    (prop : Propagator.t) =
  let geom = Solver.Dwf_solve.geom_of solver in
  let l5 = (Solver.Dwf_solve.params_of solver).Dirac.Mobius.l5 in
  Propagator.map prop (fun column ->
      let inserted = Source.apply_spin_matrix axial_matrix column in
      let restricted = restrict_timeslice geom ~tau inserted in
      let rhs = Source.to_5d ~l5 geom restricted in
      let x5, st = Solver.Dwf_solve.solve ?tol solver ~rhs in
      (Source.to_4d ~l5 geom x5, st))
