(** Statistical estimators and resampling used by the analysis chain. *)

val mean : float array -> float
val variance : ?ddof:int -> float array -> float
(** Sample variance; [ddof] defaults to 1 (unbiased). *)

val std : ?ddof:int -> float array -> float
val standard_error : float array -> float
val covariance : float array -> float array -> float
val correlation : float array -> float array -> float
(** Pearson correlation coefficient. Raises [Invalid_argument] when
    either input has zero variance — the coefficient is undefined there
    and would otherwise propagate as a silent NaN. *)

val min_max : float array -> float * float
val percentile : float array -> float -> float
(** [percentile a p] with [p] in [0,100], linear interpolation. *)

val median : float array -> float

val jackknife_samples : float array -> float array
(** Leave-one-out means. *)

val jackknife : estimator:(float array -> float) -> float array -> float * float
(** [(estimate, jackknife error)] for an arbitrary estimator. *)

val bootstrap :
  rng:Rng.t ->
  n_boot:int ->
  estimator:(float array -> float) ->
  float array ->
  float * float * float array
(** [(mean of resampled estimates, bootstrap error, all estimates)]. *)

val autocorrelation_time : float array -> float
(** Integrated autocorrelation time via the Madras–Sokal windowing rule
    (window c = 5); 0.5 means uncorrelated. *)

type histogram = {
  lo : float;
  hi : float;
  counts : int array;
  n_total : int;
}

val histogram : ?bins:int -> float array -> histogram
val histogram_bin_centers : histogram -> float array

val weighted_mean : (float * float) array -> float * float
(** Inverse-variance weighted mean of [(value, sigma)] pairs. *)
