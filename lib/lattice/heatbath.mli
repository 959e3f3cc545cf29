(** Quenched SU(3) Monte Carlo: Cabibbo–Marinari heatbath
    (Kennedy–Pendleton) and microcanonical overrelaxation for the
    Wilson gauge action.

    A link update allocates no matrix: the staple accumulates in place,
    each SU(2) subgroup step forms only the 2×2 block of U·A and
    left-multiplies two rows of U, and U is reunitarized in place —
    over buffers a sweep allocates once. Every float operation and its
    order are those of the full products ([Linalg.Su3.mul] with the
    embedded SU(2) element), so an ensemble does not depend on the
    buffering, to the bit.

    β must be finite and ≥ 0 (β = 0 samples the free measure); the
    entries that take it raise [Invalid_argument] naming the value
    otherwise. *)

val kennedy_pendleton : Util.Rng.t -> alpha:float -> float
(** Sample a0 ∈ [−1,1] with density ∝ sqrt(1−a0²)·exp(α·a0). *)

val update_link : Util.Rng.t -> beta:float -> Gauge.t -> int -> int -> unit
(** Heatbath update of link (site, mu) over the SU(2) subgroups (0,1),
    (0,2), (1,2), then reunitarized. *)

val overrelax_link : Gauge.t -> int -> int -> unit
(** Action-preserving overrelaxation update of one link. *)

val sweep : Util.Rng.t -> beta:float -> Gauge.t -> unit
(** One heatbath sweep over all links, checkerboard ordered, serial:
    the order fixes which random numbers each link draws. *)

val overrelax_sweep : Gauge.t -> unit

type schedule = {
  beta : float;
  n_thermalize : int;
  n_decorrelate : int;
  n_overrelax : int;
}

val default_schedule : beta:float -> schedule

val generate :
  Util.Rng.t -> schedule -> Geometry.t -> n_configs:int -> Gauge.t array * float array
(** [(configurations, plaquette history)] from a warm start: each
    combined sweep (one heatbath sweep, then [n_overrelax] OR sweeps)
    appends its average plaquette. Raises [Invalid_argument] on a bad
    β or a negative sweep or configuration count. *)
