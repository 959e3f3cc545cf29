(* At-scale production campaign, simulated: the bridge between the
   performance model (what one propagator group sustains) and the job
   manager (how thousands of groups share the machine). Drives the
   weak-scaling figures (5, 6), the solver-performance histogram
   (Fig 7) and the METAQ/mpi_jm claims. *)

module Spec = Machine.Spec
module Perf_model = Machine.Perf_model

type t = {
  machine : Spec.t;
  problem : Perf_model.problem;
  group_gpus : int;
  group_nodes : int;
  stack : Perf_model.mpi_stack;
}

(* Nominal wall time of one propagator task. *)
let task_duration_s = 1800.

let create ~machine ~problem ~group_gpus ~stack () =
  {
    machine;
    problem;
    group_gpus;
    group_nodes = group_gpus / machine.Spec.gpus_per_node;
    stack;
  }

(* Sustained TFlops of one group running the whole application. *)
let group_tflops t =
  match
    Perf_model.group_performance t.machine t.problem ~group_gpus:t.group_gpus
      ~stack:t.stack
  with
  | Some g -> g
  | None -> invalid_arg "Campaign.group_tflops: no decomposition for group"

type outcome = {
  n_gpus : int;
  n_tasks : int;
  sustained_pflops : float;
  utilization : float;
  makespan_s : float;
  scheduler : string;
}

(* Run [n_tasks] propagator tasks over [n_nodes] nodes under a
   scheduling strategy; sustained performance = group perf x GPU-level
   utilization. *)
let simulate ?(scheduler = `Mpi_jm) t ~n_nodes ~n_tasks =
  let rng = Util.Rng.create 7 in
  let cluster =
    Jobman.Cluster.create ~n_nodes ~gpus_per_node:t.machine.Spec.gpus_per_node
      ~cpus_per_node:40 ~jitter:t.machine.Spec.node_jitter rng
  in
  let tasks =
    Jobman.Task.campaign ~spread:0.2 ~n:n_tasks ~nodes:t.group_nodes
      ~duration:task_duration_s rng
  in
  let outcome =
    match scheduler with
    | `Naive -> Jobman.Schedulers.naive ~cluster ~tasks
    | `Metaq -> Jobman.Schedulers.metaq ~cluster ~tasks ()
    | `Mpi_jm ->
      Jobman.Schedulers.mpi_jm ~block_nodes:(t.group_nodes * 2) ~cluster ~tasks ()
  in
  let per_group = group_tflops t in
  let n_gpus = n_nodes * t.machine.Spec.gpus_per_node in
  let groups_capacity = float_of_int n_nodes /. float_of_int t.group_nodes in
  {
    n_gpus;
    n_tasks;
    sustained_pflops =
      per_group *. groups_capacity *. outcome.Jobman.Schedulers.utilization /. 1000.;
    utilization = outcome.Jobman.Schedulers.utilization;
    makespan_s = outcome.Jobman.Schedulers.makespan;
    scheduler = outcome.Jobman.Schedulers.strategy;
  }

(* Per-task achieved solver performance across a large run (Fig 7):
   node-speed heterogeneity plus placement locality spread the
   distribution. *)
let solver_performance_samples t ~n_tasks =
  let rng = Util.Rng.create 11 in
  let per_group = group_tflops t in
  Array.init n_tasks (fun _ ->
      (* slowest of the group's nodes gates the tightly-coupled solve *)
      let speed = ref infinity in
      for _ = 1 to t.group_nodes do
        let s =
          Float.max 0.6
            (Util.Rng.gaussian_sigma rng ~mu:1.0 ~sigma:t.machine.Spec.node_jitter)
        in
        if s < !speed then speed := s
      done;
      (* occasional placement/locality penalty *)
      let locality = if Util.Rng.float rng < 0.15 then 0.93 else 1.0 in
      per_group *. !speed *. locality)
