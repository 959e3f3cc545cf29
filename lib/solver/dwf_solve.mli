(** End-to-end Möbius domain-wall solves: the propagator kernel of the
    paper's workflow. Wires the red-black Schur operator into CG
    (double or mixed double-half); keeps the unpreconditioned path as
    the oracle. *)

type precision = Double | Mixed of Mixed.config

type t = {
  params : Dirac.Mobius.params;
  geom : Lattice.Geometry.t;
  full : Dirac.Mobius.t;
  eo : Dirac.Mobius.eo;
}

val create : Dirac.Mobius.params -> Lattice.Geometry.t -> Lattice.Gauge.t -> t
(** The gauge field must already carry the fermion boundary phases
    ([Lattice.Gauge.with_antiperiodic_time]). *)

val field_length : t -> int
(** Floats in a full 5D field. *)

val geom_of : t -> Lattice.Geometry.t
val params_of : t -> Dirac.Mobius.params

val solve :
  ?precision:precision ->
  ?fused:bool ->
  ?tol:float ->
  ?max_iter:int ->
  t ->
  rhs:Linalg.Field.t ->
  Linalg.Field.t * Cg.stats
(** Solve D x = rhs through the even/odd Schur complement. A mixed
    solve that hits the half-precision floor is polished in double;
    the returned stats aggregate both phases. [fused] (default
    [false]) threads the single-pass [Linalg.Fused] BLAS-1 kernels
    through every solve phase (inner mixed, outer reliable updates,
    double polish), and in the double phases additionally rides the
    p·Ap reduction on the Schur chain's closing sweep
    ([Dirac.Mobius.apply_schur_normal_tail] via [Cg.solve]'s
    [apply_dot]) — the 2-sweep BLAS-1 plan — with bit-identical
    results. *)

val solve_full : ?tol:float -> t -> rhs:Linalg.Field.t -> Linalg.Field.t * Cg.stats
(** Oracle: CG on the unpreconditioned D†D, at most 20,000 iterations. *)

val residual : t -> x:Linalg.Field.t -> rhs:Linalg.Field.t -> float
(** |D x − rhs| / |rhs| in the full 5D space. *)
