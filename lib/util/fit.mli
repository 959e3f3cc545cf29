(** Least-squares fitting: dense solves, linear LSQ, Levenberg–Marquardt. *)

exception Singular

val solve_linear_system : float array -> float array -> float array
(** [solve_linear_system a b] solves the n×n row-major system [a] x = [b]. *)

val invert_matrix : float array -> int -> float array
(** [invert_matrix a n] inverts the n×n row-major matrix.
    @raise Singular if not invertible. *)

type result = {
  params : float array;
  errors : float array;
  covariance : float array;
  chi2 : float;
  dof : int;
  converged : bool;
  iterations : int;
}

val chi2_of :
  model:(float array -> float -> float) ->
  xs:float array ->
  ys:float array ->
  sigmas:float array ->
  float array ->
  float

val levenberg_marquardt :
  model:(float array -> float -> float) ->
  xs:float array ->
  ys:float array ->
  sigmas:float array ->
  float array ->
  result
(** Nonlinear weighted least squares with numerical Jacobian, at most
    200 iterations to a relative χ² step of 1e-10. [model params x]
    evaluates the fit function. *)

val linear_lsq :
  basis:(float -> float) array ->
  xs:float array ->
  ys:float array ->
  sigmas:float array ->
  result
(** Weighted linear least squares over the given basis functions.
    @raise Invalid_argument naming the first bad point — a non-finite
    y, or a σ that is non-finite or ≤ 0 — or when [ys] or [sigmas]
    differ from [xs] in length. *)

val constant_fit : ys:float array -> sigmas:float array -> result
(** Weighted fit to a constant (plateau fit). *)
