(* Job management walkthrough: the mpi_jm story of Sec. V.

     dune exec examples/job_manager.exe

   Builds a heterogeneous campaign of propagator and contraction tasks,
   compares the three scheduling strategies in the discrete-event
   simulator, plans a lump-partitioned startup for a large allocation,
   and shows GPU-granular placement on Summit-shaped nodes. *)

module Sched = Jobman.Schedulers
module Cluster = Jobman.Cluster
module Task = Jobman.Task
module Ascii = Util.Ascii

let () =
  let rng = Util.Rng.create 8_675_309 in

  (* a campaign: 256 propagator solves (4 nodes each, ~30 min, +-15%)
     with one CPU contraction batch per four solves *)
  let tasks = Task.campaign ~spread:0.15 ~contraction_every:4 ~n:256 ~nodes:4 ~duration:1800. rng in
  Printf.printf "campaign: %d tasks, %s of node-work\n" (List.length tasks)
    (Ascii.seconds (Task.total_work tasks /. 64.));

  (* pre-flight: run the static campaign verifier before spending any
     (simulated) allocation — the same pass `neutron_check` runs *)
  let preflight =
    Check.Dag_check.verify ~n_nodes:64
      (List.map
         (fun (t : Task.t) ->
           {
             Jobman.Pipeline.id = t.Task.id;
             nodes = t.Task.nodes;
             duration = t.Task.base_duration;
             deps = [];
             cpu_only = (t.Task.kind = Task.Contraction);
           })
         tasks)
  in
  Printf.printf "pre-flight check: %d error(s), %d warning(s)\n"
    (Check.Diagnostic.count_errors preflight)
    (Check.Diagnostic.count_warnings preflight);
  if Check.Diagnostic.has_errors preflight then begin
    List.iter
      (fun d -> print_endline ("  " ^ Check.Diagnostic.to_string d))
      preflight;
    exit 1
  end;

  let mk () =
    Cluster.create ~n_nodes:64 ~gpus_per_node:4 ~cpus_per_node:40 ~jitter:0.05
      (Util.Rng.create 1)
  in
  let outcomes =
    [
      Sched.naive ~cluster:(mk ()) ~tasks;
      Sched.metaq ~cluster:(mk ()) ~tasks ();
      Sched.mpi_jm ~block_nodes:8 ~cluster:(mk ()) ~tasks ();
    ]
  in
  Ascii.print_table
    ~header:[ "strategy"; "makespan"; "utilization"; "idle" ]
    (List.map
       (fun o ->
         [
           o.Sched.strategy;
           Ascii.seconds o.Sched.makespan;
           Printf.sprintf "%.1f%%" (100. *. o.Sched.utilization);
           Printf.sprintf "%.1f%%" (100. *. o.Sched.idle_fraction);
         ])
       outcomes);

  (* startup planning for a big allocation *)
  print_endline "\nstartup plan for a 2048-node allocation (lumps of 128):";
  let s = Jobman.Startup.mpi_jm ~nodes:2048 ~lump_nodes:128 rng in
  Printf.printf
    "  %d lumps launch in parallel, %d failed (dropped), %d nodes usable,\n\
     \  up and running in %s (monolithic mpirun: %s, with restart risk)\n"
    s.Jobman.Startup.lumps s.Jobman.Startup.lumps_failed
    s.Jobman.Startup.usable_nodes
    (Ascii.seconds s.Jobman.Startup.total_s)
    (Ascii.seconds (fst (Jobman.Startup.monolithic Jobman.Startup.default ~nodes:2048)));

  (* GPU-granular placement *)
  print_endline "\nplacement: three 16-GPU jobs on 8 six-GPU nodes (48 GPUs):";
  (match Jobman.Placement.place ~n_jobs:3 ~gpus_per_job:16 ~nodes:8 ~gpus_per_node:6 with
  | None -> print_endline "  does not fit"
  | Some ps ->
    List.iter
      (fun p ->
        Printf.printf "  job %d: %d nodes x %d GPUs (efficiency %.2f)\n"
          (p.Jobman.Placement.job + 1) p.Jobman.Placement.nodes_used
          p.Jobman.Placement.gpus_per_node_used p.Jobman.Placement.efficiency)
      ps);
  (* dependency-aware pipeline: contractions depend on their batch of
     propagators; verify the DAG (cycles, dangling deps, feasibility,
     DES deadlock replay), then compare scheduling modes *)
  print_endline "\nco-scheduled pipeline (contractions depend on their batch):";
  let ptasks =
    Jobman.Pipeline.campaign ~batch:4 ~n_props:64 ~prop_nodes:4 ~duration:1800.
      (Util.Rng.create 2)
  in
  (match Check.Dag_check.verify ~n_nodes:64 ptasks with
  | [] -> print_endline "  DAG verified: no findings"
  | ds when not (Check.Diagnostic.has_errors ds) ->
    Printf.printf "  DAG verified: %d warning(s), no errors\n" (List.length ds)
  | ds ->
    List.iter (fun d -> print_endline ("  " ^ Check.Diagnostic.to_string d)) ds;
    exit 1);
  let separate, cosched = Jobman.Pipeline.compare_modes ~n_nodes:64 ~tasks:ptasks in
  List.iter
    (fun (o : Jobman.Pipeline.outcome) ->
      Printf.printf "  %-12s makespan %s, billed %s node-s (overhead %s)\n"
        o.Jobman.Pipeline.mode
        (Ascii.seconds o.Jobman.Pipeline.makespan)
        (Ascii.seconds o.Jobman.Pipeline.billed)
        (Ascii.seconds o.Jobman.Pipeline.contraction_overhead))
    [ separate; cosched ];

  print_endline "\nCPU co-scheduling: contractions ride on busy nodes' CPUs for free\n(mpi_jm absorbed all contraction tasks above without extra allocations)."
