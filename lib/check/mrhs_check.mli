(** Static checker for batched multi-RHS launch plans
    ([Dirac.Wilson.hop_multi], [Linalg.Multi_blas],
    [Solver.Cg.solve_multi]): verifies the per-RHS convergence masking
    (a converged system must leave the active set) and that masks and
    reduction partitions match the batch width. Rule ids
    [MRHS001]–[MRHS002]. *)

type plan = {
  kernel : string;  (** batched kernel name, e.g. ["wilson_hop_multi"] *)
  k : int;  (** batch width: right-hand sides per gauge stream *)
  n : int;  (** per-RHS vector length in floats *)
  block : int;  (** reduction block of the per-RHS folds *)
  active : bool array;  (** per-RHS: still contributing updates *)
  converged : bool array;  (** per-RHS: met its stopping criterion *)
}

val rules : (string * string) list

val plan :
  kernel:string ->
  k:int ->
  n:int ->
  block:int ->
  active:bool array ->
  converged:bool array ->
  unit ->
  plan

val verify_plan : plan -> Diagnostic.t list
val verify_plans : plan list -> Diagnostic.t list
