(** At-scale production campaign, simulated: bridges the performance
    model (per-group sustained TFlops) and the job manager (how
    thousands of groups share the machine). Drives Figs. 5–7. *)

type t = {
  machine : Machine.Spec.t;
  problem : Machine.Perf_model.problem;
  group_gpus : int;
  group_nodes : int;
  stack : Machine.Perf_model.mpi_stack;
}

val create :
  machine:Machine.Spec.t ->
  problem:Machine.Perf_model.problem ->
  group_gpus:int ->
  stack:Machine.Perf_model.mpi_stack ->
  unit ->
  t
(** Every task of the campaign runs a nominal 1800 s. *)

val group_tflops : t -> float
(** Whole-application sustained TFlops of one group.
    @raise Invalid_argument if the group admits no decomposition. *)

type outcome = {
  n_gpus : int;
  n_tasks : int;
  sustained_pflops : float;
  utilization : float;
  makespan_s : float;
  scheduler : string;
}

val simulate :
  ?scheduler:[ `Naive | `Metaq | `Mpi_jm ] ->
  t ->
  n_nodes:int ->
  n_tasks:int ->
  outcome

val solver_performance_samples : t -> n_tasks:int -> float array
(** Per-task achieved TFlops across a large run (the Fig 7 histogram):
    slowest-node gating plus occasional placement penalties. *)
