(** Spectral estimates for hermitian positive operators: the condition
    number behind CG's convergence rate and lattice QCD's critical
    slowing down toward light quark masses. *)

type estimate = {
  lambda_max : float;
  lambda_min : float;
  condition_number : float;
  iterations_max : int;  (** power iterations used *)
  iterations_min : int;  (** inverse iterations used *)
}

val power_max :
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  n:int ->
  rng:Util.Rng.t ->
  unit ->
  float * int
(** Largest eigenvalue by power iteration, stopped at a relative change
    of 1e-6 or after 500 steps; returns (λ, iterations). *)

val power_min :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Linalg.Field.t ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  n:int ->
  rng:Util.Rng.t ->
  unit ->
  float * int
(** Smallest eigenvalue by CG-based inverse iteration, each inner
    solve to 1e-8. [x0] warm-starts the iteration vector (normalized
    copy) — e.g. the previous configuration's lowest mode when
    rebuilding a deflation space across a stream of configs; absent,
    the gaussian start is bit-identical to before.
    @raise Invalid_argument naming the step when an inner CG solve
    does not converge — an operator CG cannot invert (singular or
    indefinite) has no estimate here. *)

val condition_number :
  ?rng:Util.Rng.t ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  n:int ->
  unit ->
  estimate
(** λ_max by {!power_max}, λ_min by {!power_min}, κ = λ_max/λ_min.
    @raise Invalid_argument as {!power_min} does. *)

val cg_iteration_bound : condition_number:float -> tol:float -> float
(** Classical bound: ~(1/2)·sqrt(κ)·ln(2/tol) iterations. *)
