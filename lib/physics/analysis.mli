(** Correlator analysis: effective masses/couplings, resampled errors,
    and the profile (variable-projection) fits that extract gA. *)

val effective_mass : float array -> float array
(** m_eff(t) = ln C(t)/C(t+1); NaN where the ratio is non-positive. *)

val ensemble_mean : float array array -> float array
(** Samples × t → per-timeslice mean. *)

val ensemble_error : float array array -> float array
(** Standard error of the mean per timeslice. *)

val bootstrap_observable :
  rng:Util.Rng.t ->
  n_boot:int ->
  float array array ->
  (float array -> float array) ->
  float array * float array
(** Observable of the ensemble mean, with bootstrap errors:
    [(central, error)] per output index. *)

val geff_model : float array -> float -> float
(** Two-state form g00 + b01·e^{−dE·t} + b11·t·e^{−dE·t} with
    p = [g00; b01; b11; dE]. *)

type ga_fit = {
  ga : float;
  ga_err : float;
  de : float;
  chi2_dof : float;
  fit : Util.Fit.result;
  t_range : int * int;
}

val de_grid : float array
(** Profile grid for the gap — bounded below by ~2·mπ, the Bayesian
    prior of the real analysis. *)

val profile_fit :
  xs:float array ->
  ys:float array ->
  sigmas:float array ->
  unit ->
  float * Util.Fit.result
(** Variable projection: linear LSQ in the amplitudes at each grid
    gap, minimum (prior-penalized) χ² wins. Returns (dE, fit). *)

val fit_geff :
  rng:Util.Rng.t ->
  n_boot:int ->
  float array array ->
  observable:(float array -> float array) ->
  t_min:int ->
  t_max:int ->
  ga_fit
(** The Fig-1 fit: bootstrap errors per point, profile fit on the
    mean, bootstrap of the whole fit for the gA error. *)

val fit_plateau :
  mean:float array -> err:float array -> t_min:int -> t_max:int -> float * float
(** Weighted constant fit (the traditional method's late-time
    estimator). *)
