(** Conjugate gradient on the normal equations — the paper's solver
    family. The operator is a closure: the same CG drives the Wilson
    normal operator, the full Möbius normal operator and the red-black
    Schur normal operator. One recurrence serves both entries:
    [solve_multi] advances k right-hand sides in lockstep, and [solve]
    is its batch of one. Its kernels report to [Util.Prof], so the
    plan the static analyzer checks is a recording of this code. *)

type stats = {
  iterations : int;
  converged : bool;
  relative_residual : float;  (** |r|/|b| from the CG recurrence *)
  true_relative_residual : float option;  (** recomputed |b − Ax|/|b| *)
  flops : float;
  seconds : float;
  reliable_updates : int;  (** mixed-precision solves only *)
}

val blas1_flops : ?fused:bool -> int -> float
(** BLAS-1 flops of one CG iteration on vectors of [n] floats: 10n
    unfused, 12n fused (the single-pass kernels spend 2n extra flops
    on the free p·r orthogonality monitor while streaming fewer
    bytes — see [Dirac.Flops] for the bytes side). *)

val solve :
  ?x0:Linalg.Field.t ->
  ?deflate:Deflate.t ->
  ?fused:bool ->
  ?apply_dot:(Linalg.Field.t -> Linalg.Field.t -> float) ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  b:Linalg.Field.t ->
  tol:float ->
  max_iter:int ->
  flops_per_apply:float ->
  unit ->
  Linalg.Field.t * stats
(** [solve ~apply ~b ~tol ~max_iter ~flops_per_apply ()] solves A x = b
    for a hermitian positive-definite [apply]: [solve_multi]'s
    recurrence on a batch of one. Convergence criterion: |r| ≤ tol·|b|.
    The true residual is recomputed at the end. A non-positive p·Ap
    (an operator not positive along p) ends the solve with
    [converged = false], reporting the iterations and flops it ran.

    [fused] (default [false]) runs the BLAS-1 tail through the
    single-pass [Linalg.Fused] kernels; the iterate, residual
    trajectory and iteration count are bit-identical to the unfused
    path for any pool geometry.

    [apply_dot src dst] is the tail-capable operator: dst = A src AND
    the return of src·dst, computed inside the operator's closing
    sweep through the canonical blocked reduction
    ([Dirac.Wilson.hop_tail], [Dirac.Mobius.apply_schur_normal_tail])
    so it is bit-identical to [apply src dst; Field.dot_re src dst].
    Consumed only when [fused] — together they execute the 2-sweep
    BLAS-1 plan [Machine.Perf_model.blas1_sweeps] prices; a fused
    solve without [apply_dot] keeps the dot as a separate monitor
    sweep (same bits, one more sweep, not model-priced).

    Each iteration ends in [Util.Prof.mark ~rhs:0] with |r|² (after
    the residual update) — what the fused≡unfused trajectory tests
    compare, and the boundary [Check.Plan_record] cuts one iteration's
    launches out of a recorded solve at.

    [deflate] folds the low-mode correction Σᵢ vᵢ(vᵢ·r₀)/λᵢ of the
    entry residual into the initial guess (one extra apply recomputes
    r exactly), cutting the iteration count on small-eigenvalue
    configurations; the CG recurrence itself is unchanged.
    @raise Invalid_argument on a non-finite |b|² or starting |r|². *)

val solve_multi :
  ?x0s:Linalg.Field.t array ->
  ?deflate:Deflate.t ->
  ?fused:bool ->
  apply:(Linalg.Field.t array -> Linalg.Field.t array -> unit) ->
  bs:Linalg.Field.t array ->
  tol:float ->
  max_iter:int ->
  flops_per_apply:float ->
  unit ->
  Linalg.Field.t array * stats array
(** Batched CG over k right-hand sides sharing one operator. [apply]
    receives the sub-batch of still-active systems each iteration, so
    a batched operator ([Dirac.Mobius.apply_schur_normal_multi])
    streams the gauge links once for the whole surviving batch.
    Per-RHS convergence masking: a system that converges (or exhausts
    [max_iter], or hits a non-positive p·Ap breakdown) leaves the
    active set and stops contributing updates, its stats counting the
    iterations it ran, while each surviving trajectory — iterate,
    residual sequence, iteration count, flop count — stays
    bit-identical to the independent [solve] of that RHS, because the
    per-RHS float operations (reductions through the canonical blocked
    association, updates in the scalar kernels' element order) are
    exactly [solve]'s whether batch-mates remain or not.

    [fused] routes the tail through [Linalg.Multi_blas] (per-RHS
    bit-identical to the [Linalg.Fused] path, hence to the unfused
    scalar path). Each iteration marks ([Util.Prof.mark ~rhs:i]) every
    active RHS [i] with its |r|². [x0s], when given, must match [bs]
    in width. Batch must be non-empty; all fields the same length.

    [deflate] seeds every guess with the batched low-mode correction
    (one k×r coefficient tile, one [Multi_blas.block_axpy] launch,
    one batched apply for the exact residuals); per RHS the entry is
    bit-identical to [solve ?deflate] on that RHS, preserving the
    trajectory-equality property.
    @raise Invalid_argument as [solve] does, per nonzero [b]. *)
