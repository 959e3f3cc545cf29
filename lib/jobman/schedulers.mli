(** The three job-management strategies of the paper: naive bundling
    (20–25% idle), METAQ backfilling, and mpi_jm with blocks and
    co-scheduled contractions. *)

type outcome = {
  strategy : string;
  makespan : float;
  utilization : float;  (** productive node-time / (nodes × makespan) *)
  allocated_fraction : float;  (** allocation-held fraction *)
  ideal_time : float;  (** perfect-packing bound: total work / nodes *)
  idle_fraction : float;
  tasks_completed : int;
}

val naive : cluster:Cluster.t -> tasks:Task.t list -> outcome
(** Launch groups simultaneously; everyone waits for the slowest
    member before the next group starts. *)

val metaq : cluster:Cluster.t -> tasks:Task.t list -> unit -> outcome
(** Backfill whenever nodes free; allocations may scatter and pay the
    locality penalty. *)

val mpi_jm :
  ?block_nodes:int -> cluster:Cluster.t -> tasks:Task.t list -> unit -> outcome
(** Jobs placed inside fixed blocks (no fragmentation); CPU-only
    contraction tasks are absorbed by co-scheduling. *)
