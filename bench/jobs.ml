(* Job-management experiments: the METAQ idle-recovery claim, the
   mpi_jm partitioned startup, GPU-granular placement, and the
   autotuner demos (kernel launch parameters + communication policy). *)

module Sched = Jobman.Schedulers
module Cluster = Jobman.Cluster
module Task = Jobman.Task
module Startup = Jobman.Startup
module Placement = Jobman.Placement
module Ascii = Util.Ascii

let metaq () =
  Ascii.banner "Sec. V: naive bundling vs METAQ vs mpi_jm (discrete-event sim)";
  let rng = Util.Rng.create 90125 in
  let n_nodes = 128 in
  let tasks = Task.campaign ~spread:0.15 ~n:512 ~nodes:4 ~duration:1800. rng in
  let mk () =
    Cluster.create ~n_nodes ~gpus_per_node:4 ~cpus_per_node:40 ~jitter:0.05
      (Util.Rng.create 4)
  in
  let naive = Sched.naive ~cluster:(mk ()) ~tasks in
  let metaq = Sched.metaq ~cluster:(mk ()) ~tasks () in
  let jm = Sched.mpi_jm ~block_nodes:8 ~cluster:(mk ()) ~tasks () in
  Ascii.print_table
    ~header:[ "Strategy"; "makespan"; "utilization"; "idle"; "speedup vs naive" ]
    (List.map
       (fun o ->
         [
           o.Sched.strategy;
           Ascii.seconds o.Sched.makespan;
           Printf.sprintf "%.1f %%" (100. *. o.Sched.utilization);
           Printf.sprintf "%.1f %%" (100. *. o.Sched.idle_fraction);
           Printf.sprintf "%.2fx" (naive.Sched.makespan /. o.Sched.makespan);
         ])
       [ naive; metaq; jm ]);
  Ascii.print_table
    ~header:[ "Check"; "Paper"; "Here" ]
    [
      [ "naive bundling idle"; "20-25%";
        Printf.sprintf "%.0f%%" (100. *. naive.Sched.idle_fraction) ];
      [ "METAQ recovery"; "~25% across-the-board speed-up";
        Printf.sprintf "%.0f%% speed-up"
          (100. *. ((naive.Sched.makespan /. metaq.Sched.makespan) -. 1.)) ];
      [ "mpi_jm vs METAQ"; "blocks prevent fragmentation";
        Printf.sprintf "%.1f%% faster than METAQ"
          (100. *. ((metaq.Sched.makespan /. jm.Sched.makespan) -. 1.)) ];
    ]

let startup () =
  Ascii.banner "Sec. V: startup at scale — monolithic mpirun vs mpi_jm lumps";
  let rng = Util.Rng.create 5150 in
  let rows =
    List.map
      (fun nodes ->
        let mono, attempts = Startup.monolithic Startup.default ~nodes in
        let lump = Startup.mpi_jm ~nodes ~lump_nodes:128 rng in
        ( nodes,
          mono,
          attempts,
          lump.Startup.total_s,
          lump.Startup.lumps,
          lump.Startup.lumps_failed ))
      [ 128; 512; 1024; 2048; 4224 ]
  in
  Ascii.print_table
    ~header:
      [ "nodes"; "monolithic"; "E[attempts]"; "mpi_jm lumps"; "lumps"; "failed" ]
    (List.map
       (fun (n, mono, att, lump, nl, nf) ->
         [
           string_of_int n;
           Ascii.seconds mono;
           Printf.sprintf "%.2f" att;
           Ascii.seconds lump;
           string_of_int nl;
           string_of_int nf;
         ])
       rows);
  let _, _, _, t4224, _, _ = List.nth rows 4 in
  Ascii.print_table
    ~header:[ "Check"; "Paper"; "Here" ]
    [
      [ "4224-node startup"; "3-5 minutes"; Ascii.seconds t4224 ];
      [ "lumps connected"; "< 1 minute";
        Printf.sprintf "%.0f s of connects" (float_of_int ((4224 + 127) / 128) *. 1.5) ];
      [ "bad nodes"; "failed lumps ignored, job proceeds"; "same (dropped lumps)" ];
    ]

let placement () =
  Ascii.banner "Sec. VII: GPU-granular placement — three 16-GPU jobs on 8 Summit nodes";
  match Placement.place ~n_jobs:3 ~gpus_per_job:16 ~nodes:8 ~gpus_per_node:6 with
  | None -> print_endline "placement failed (unexpected)"
  | Some ps ->
    Ascii.print_table
      ~header:[ "job"; "nodes used"; "GPUs/node"; "efficiency" ]
      (List.map
         (fun p ->
           [
             string_of_int (p.Placement.job + 1);
             string_of_int p.Placement.nodes_used;
             string_of_int p.Placement.gpus_per_node_used;
             Printf.sprintf "%.2f" p.Placement.efficiency;
           ])
         ps);
    Printf.printf
      "aggregate efficiency %.3f — the 2-GPU/node job pays a penalty,\n\
       \"largely mitigated by the backfilling capability of mpi_jm\".\n"
      (Placement.aggregate_efficiency ps)

let autotune () =
  Ascii.banner "Sec. IV-V: run-time autotuning (kernel launch + communication policy)";
  (* kernel autotuning on the real Wilson stencil *)
  let tuner = Autotune.Tuner.create ~repeats:3 () in
  let geom = Lattice.Geometry.create [| 8; 8; 8; 8 |] in
  let gauge = Lattice.Gauge.warm geom (Util.Rng.create 3) ~eps:0.3 in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let n = Lattice.Geometry.volume geom * 24 in
  let src = Linalg.Field.create n and dst = Linalg.Field.create n in
  Linalg.Field.gaussian (Util.Rng.create 4) src;
  let tune_hop () =
    Autotune.Variants.label
      (Autotune.Variants.tune_hop tuner [ w ] ~srcs:[| src |] ~dsts:[| dst |]
         ~signature:"8888/double")
  in
  let t0 = Util.Clock.now_s () in
  let winner = tune_hop () in
  let t_first = Util.Clock.now_s () -. t0 in
  let t1 = Util.Clock.now_s () in
  let winner2 = tune_hop () in
  let t_cached = Util.Clock.now_s () -. t1 in
  Printf.printf
    "wilson_hop on 8^4: brute-force search picked '%s' in %s; cached lookup '%s' in %s\n"
    winner (Ascii.seconds t_first) winner2 (Ascii.seconds t_cached);
  Printf.printf "axpy 64k: picked '%s'\n"
    (Autotune.Variants.label (Autotune.Variants.tune_axpy tuner ~n:(1 lsl 16)));
  List.iter
    (fun e ->
      Printf.printf "  cache: %-12s %-14s -> %-9s (%d candidates, %s)\n"
        e.Autotune.Tuner.kernel e.Autotune.Tuner.signature e.Autotune.Tuner.winner
        e.Autotune.Tuner.candidates_tried
        (Ascii.seconds e.Autotune.Tuner.time_s))
    (Autotune.Tuner.entries tuner);
  (* communication-policy autotuning across machines and scales *)
  let ct = Autotune.Comm_tune.create () in
  let p48 = Machine.Perf_model.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20 in
  print_endline "\ncommunication-policy autotuning (policy chosen per machine & scale):";
  Ascii.print_table
    ~header:[ "machine"; "16 GPUs"; "128 GPUs"; "2048 GPUs" ]
    (List.map
       (fun m ->
         m.Machine.Spec.name
         :: List.map
              (fun n ->
                match Autotune.Comm_tune.pick ct m p48 ~n_gpus:n with
                | Some (pol, _) -> Machine.Policy.name pol
                | None -> "-")
              [ 16; 128; 2048 ])
       [ Machine.Spec.titan; Machine.Spec.ray; Machine.Spec.sierra;
         Machine.Spec.summit ]);
  (* a second pass over the same configurations is served from cache *)
  List.iter
    (fun m -> ignore (Autotune.Comm_tune.pick ct m p48 ~n_gpus:16))
    [ Machine.Spec.titan; Machine.Spec.ray; Machine.Spec.sierra ];
  Printf.printf
    "searches: %d, cache hits on reuse: %d — \"performance portability across\n\
     GPU generations ... always use the optimum communication strategy\".\n"
    (Autotune.Comm_tune.tune_count ct)
    (Autotune.Comm_tune.hit_count ct)

let failures () =
  Ascii.banner "Sec. V: MPI_Abort takes down the lump — why lumps stay small";
  let r = Util.Rng.create 1968 in
  let sweep =
    Jobman.Failures.lump_size_sweep ~abort_prob:0.005 ~n_nodes:1024 ~job_nodes:4
      ~n_tasks:1024 ~duration:1800. ~lump_sizes:[ 16; 32; 64; 128; 256 ] r
  in
  Ascii.print_table
    ~header:
      [ "lump nodes"; "lumps lost"; "nodes lost"; "requeued"; "completed";
        "capacity left"; "makespan" ]
    (List.map
       (fun (o : Jobman.Failures.outcome) ->
         [
           string_of_int o.Jobman.Failures.lump_nodes;
           string_of_int o.Jobman.Failures.lumps_lost;
           string_of_int o.Jobman.Failures.nodes_lost;
           string_of_int o.Jobman.Failures.tasks_requeued;
           Printf.sprintf "%d/1024" o.Jobman.Failures.completed;
           Printf.sprintf "%.0f %%" (100. *. o.Jobman.Failures.capacity_left);
           Ascii.seconds o.Jobman.Failures.makespan;
         ])
       sweep);
  print_endline
    "\"a call to MPI_Abort in a disconnected job still brings the entire lump\n\
     down ... This led us to use relatively small lump sizes on new systems\n\
     that may be suffering from pre-acceptance issues.\""

let pipeline () =
  Ascii.banner "Sec. VI: contraction co-scheduling makes the CPU work free";
  let r = Util.Rng.create 2112 in
  let tasks = Jobman.Pipeline.campaign ~batch:4 ~n_props:512 ~prop_nodes:4 ~duration:1800. r in
  let sep, cos = Jobman.Pipeline.compare_modes ~n_nodes:128 ~tasks in
  Ascii.print_table
    ~header:[ "mode"; "makespan"; "allocation billed (node-s)"; "contraction overhead" ]
    [
      [ sep.Jobman.Pipeline.mode;
        Ascii.seconds sep.Jobman.Pipeline.makespan;
        Printf.sprintf "%.0f" sep.Jobman.Pipeline.billed;
        Printf.sprintf "%.0f node-s (%.1f%%)" sep.Jobman.Pipeline.contraction_overhead
          (100. *. sep.Jobman.Pipeline.contraction_overhead /. sep.Jobman.Pipeline.gpu_work) ];
      [ cos.Jobman.Pipeline.mode;
        Ascii.seconds cos.Jobman.Pipeline.makespan;
        Printf.sprintf "%.0f" cos.Jobman.Pipeline.billed; "0 (amortized on busy CPUs)" ];
    ];
  print_endline
    "co-scheduling removes the contraction allocation entirely — \"their\n\
     cost is brought to zero\" (Sec. VI: contractions are 3% of the\n\
     computation; I/O another 0.5%)."
