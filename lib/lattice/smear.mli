(** Stout link smearing (Morningstar–Peardon): U' = exp(iQ)·U with Q
    the su(3)-projected staple force — the smoothing applied to the
    production gauge fields. *)

val exp_i_herm : Linalg.Su3.t -> Linalg.Su3.t
(** exp(iQ) for hermitian traceless Q (power series to order 24,
    snapped back to SU(3)). *)

val stout_q : rho:float -> Linalg.Su3.t -> Linalg.Su3.t -> Linalg.Su3.t
(** [stout_q ~rho u c] with [c] the staple sum in the C = ρA†
    convention: the hermitian traceless Q of one link. *)

val step : ?rho:float -> Gauge.t -> Gauge.t
(** One stout step (fresh field; all staples read the input). *)

val smear : ?rho:float -> steps:int -> Gauge.t -> Gauge.t
