(** BiCGStab on a (non-hermitian) complex-linear operator — the
    baseline alternative to CG on the normal equations. The operator
    must be complex-linear over the interleaved re/im layout (Dirac
    operators are; componentwise-real test matrices are not). *)

val tail_kernels : fused:bool -> (string * int) list
(** One full iteration's BLAS-1 sequence as (kernel, full-vector
    sweeps) rows in launch order, both stabilizer halves included —
    the ground truth [Check.Plan_extract] lifts into the plan IR. The
    fused column replaces each caxpy-then-norm2 pair with the
    single-pass [Linalg.Fused.caxpy_norm2]. *)

val solve :
  ?fused:bool ->
  ?trace:(float -> unit) ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  b:Linalg.Field.t ->
  tol:float ->
  max_iter:int ->
  flops_per_apply:float ->
  unit ->
  Linalg.Field.t * Cg.stats
(** Converges when |r| ≤ tol·|b|, starting from x = 0;
    [converged = false] on breakdown (vanishing ρ or ω) or max_iter.
    Raises [Invalid_argument] when |b|² is not finite.

    [fused] (default [false]) computes the two residual updates
    (s = r − α·v and r = s − ω·t) with [Linalg.Fused.caxpy_norm2],
    folding the convergence-check norm into the update sweep —
    bit-identical trajectory for any pool geometry. [trace] receives
    each residual norm² as it is computed (|s|², then |r|² when the
    iteration reaches it). *)
