(** BiCGStab on a (non-hermitian) complex-linear operator — the
    baseline alternative to CG on the normal equations. The operator
    must be complex-linear over the interleaved re/im layout (Dirac
    operators are; componentwise-real test matrices are not). Its
    kernels, the private p-update included, report to [Util.Prof]. *)

val solve :
  ?fused:bool ->
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
    bit-identical trajectory for any pool geometry. Each residual norm²
    is marked ([Util.Prof.mark ~rhs:0]) as it is computed: |s|², then
    |r|² when the iteration reaches it. *)
