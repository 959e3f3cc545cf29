(** Thick-restart Lanczos for the lowest eigenpairs of a hermitian
    positive operator — the builder behind {!Deflate}. The complex
    operator is iterated as a real-symmetric operator (same spectrum,
    doubled multiplicity), so every reduction is a canonical blocked
    [Field.dot_re]/[Field.norm] and every basis combination a
    [Multi_blas.block_axpy]: the returned basis and Ritz values are
    bit-identical for any pool geometry at a fixed rank. *)

type stats = {
  applies : int;  (** operator applications spent *)
  restarts : int;  (** thick-restart cycles after the first *)
  residuals : float array;  (** per kept pair, |A v − λ v| *)
  converged : bool;
}

val sym_eig : float array array -> float array * float array array
(** Dense symmetric eigensolver (deterministic cyclic Jacobi):
    [(vals, vecs)] with eigenvalues ascending and [vecs.(k)] the
    eigenvector of [vals.(k)]. Exposed for the projected-matrix
    property tests. *)

val lowest :
  ?tol:float ->
  ?max_restarts:int ->
  ?basis_size:int ->
  rank:int ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  n:int ->
  rng:Util.Rng.t ->
  unit ->
  float array * Linalg.Field.t array * stats
(** [lowest ~rank ~apply ~n ~rng ()] returns the [rank] lowest Ritz
    values (ascending), their orthonormal Ritz vectors, and the run
    stats. Convergence: every kept pair's residual |A v − λ v| falls
    under [tol]·(largest Ritz value). [basis_size] (default
    [max (2·rank) (rank+6)], must exceed [rank]) is the working basis
    per cycle, started from a gaussian draw from [rng]; [max_restarts]
    (default 60) bounds the thick-restart cycles. *)
