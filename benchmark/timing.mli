(** Monotonic time and the order statistics the benchmark reports.

    Quartiles use the exclusive method of Python's
    [statistics.quantiles(values, n=4)], so the spreads printed here are
    the ones a harness computing them in Python sees. *)

val now : unit -> float
(** Seconds on the monotonic clock ([bechamel.monotonic_clock]). *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with the elapsed seconds. *)

val median : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val quartiles : float array -> float * float * float
(** [(p25, p50, p75)] by the exclusive method. A single sample gives
    that sample three times. Raises [Invalid_argument] when empty. *)

val iqr_frac : float array -> float
(** [(p75 - p25) / p50]: the spread as a share of the median. *)

val reported_percentile : int -> float
(** The highest of the 50th, 90th, 99th and 99.9th percentiles with at
    least ten of [n] samples beyond it; the median below 20 samples. *)

val percentile : float array -> float -> float
(** [percentile xs p], [p] in [0, 100], linear interpolation between
    closest ranks. Raises [Invalid_argument] when empty. *)

type summary = {
  n : int;
  p25 : float;
  p50 : float;
  p75 : float;
  max : float;
  reported : float;  (** the percentile [reported_percentile n] names *)
}

val summarize : float array -> summary
