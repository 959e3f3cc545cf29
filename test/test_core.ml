(* Tests for Core: the end-to-end workflow (tiny lattice) and the
   at-scale campaign simulation. *)

module Workflow = Core.Workflow
module Campaign = Core.Campaign
module PM = Machine.Perf_model

let tiny_spec =
  {
    Workflow.default_spec with
    Workflow.dims = [| 2; 2; 2; 4 |];
    l5 = 4;
    n_configs = 2;
    n_thermalize = 5;
    n_decorrelate = 2;
    tol = 1e-7;
    io_path = Some (Filename.temp_file "workflow" ".nfh5");
  }

let workflow_result = lazy (Workflow.run ~spec:tiny_spec ())

let test_workflow_completes () =
  let r = Lazy.force workflow_result in
  Alcotest.(check int) "2 configs measured" 2 (Array.length r.Workflow.measurements);
  Array.iter
    (fun m ->
      Alcotest.(check bool) "plaquette in (0,1)" true
        (m.Workflow.plaquette > 0. && m.Workflow.plaquette < 1.);
      Alcotest.(check bool) "solves happened" true (m.Workflow.solver_iterations > 0))
    r.Workflow.measurements

let test_workflow_time_budget_shape () =
  (* propagators dominate, like the paper's 96.5 / 3 / 0.5 split *)
  let r = Lazy.force workflow_result in
  let t = r.Workflow.timing in
  (* monotonic-clock buckets: never negative, never NaN *)
  List.iter
    (fun (bucket, s) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s = %g finite and >= 0" bucket s)
        true
        (Float.is_finite s && s >= 0.))
    [
      ("gauge_s", t.Workflow.gauge_s);
      ("propagator_s", t.Workflow.propagator_s);
      ("contraction_s", t.Workflow.contraction_s);
      ("io_s", t.Workflow.io_s);
    ];
  let prop, contract, io = Workflow.time_fractions t in
  Alcotest.(check (float 1e-9)) "fractions sum to 1" 1. (prop +. contract +. io);
  Alcotest.(check bool) (Printf.sprintf "propagators dominate (%.3f)" prop) true
    (prop > 0.7);
  Alcotest.(check bool) "io small" true (io < 0.1)

let test_workflow_archive_written () =
  let r = Lazy.force workflow_result in
  match r.Workflow.spec.Workflow.io_path with
  | None -> Alcotest.fail "spec had io_path"
  | Some path ->
    let h5 = Qio.H5lite.load path in
    Alcotest.(check bool) "correlators archived" true
      (List.length (Qio.H5lite.paths h5) >= 6);
    (match Qio.H5lite.read_correlator h5 ~path:"cfg0/pion" with
    | Some c ->
      Alcotest.(check int) "full time extent" 4 (Array.length c);
      Array.iter (fun x -> Alcotest.(check bool) "pion positive" true (x > 0.)) c
    | None -> Alcotest.fail "pion correlator missing");
    Sys.remove path

let test_workflow_pion_mass_positive () =
  let r = Lazy.force workflow_result in
  let m, _ = r.Workflow.pion_mass in
  Alcotest.(check bool) (Printf.sprintf "m_pi_eff %g > 0" m) true (m > 0.)

let campaign_sierra () =
  Campaign.create ~machine:Machine.Spec.sierra
    ~problem:(PM.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20)
    ~group_gpus:16 ~stack:PM.Mvapich2 ()

let test_campaign_group_performance () =
  let c = campaign_sierra () in
  let tf = Campaign.group_tflops c in
  (* 16 V100 at ~1.85 TF/GPU solver rate, derated by app + stack *)
  Alcotest.(check bool) (Printf.sprintf "group %g TF in (15, 25)" tf) true
    (tf > 15. && tf < 25.)

let test_campaign_simulation_utilization () =
  let c = campaign_sierra () in
  let o = Campaign.simulate ~scheduler:`Mpi_jm c ~n_nodes:64 ~n_tasks:128 in
  Alcotest.(check bool) "utilization (0.5, 1]" true
    (o.Campaign.utilization > 0.5 && o.Campaign.utilization <= 1.0 +. 1e-9);
  Alcotest.(check bool) "sustained positive" true (o.Campaign.sustained_pflops > 0.)

let test_campaign_mpi_jm_beats_naive () =
  let c = campaign_sierra () in
  let naive = Campaign.simulate ~scheduler:`Naive c ~n_nodes:64 ~n_tasks:128 in
  let jm = Campaign.simulate ~scheduler:`Mpi_jm c ~n_nodes:64 ~n_tasks:128 in
  Alcotest.(check bool)
    (Printf.sprintf "mpi_jm %.3f > naive %.3f" jm.Campaign.utilization
       naive.Campaign.utilization)
    true
    (jm.Campaign.utilization > naive.Campaign.utilization)

let test_campaign_histogram_samples () =
  let c = campaign_sierra () in
  let samples = Campaign.solver_performance_samples c ~n_tasks:500 in
  Alcotest.(check int) "500 samples" 500 (Array.length samples);
  let mean = Util.Stats.mean samples in
  let per_group = Campaign.group_tflops c in
  Alcotest.(check bool) "mean below nominal (slowest-node gating)" true
    (mean < per_group);
  Alcotest.(check bool) "mean within 20%" true (mean > 0.8 *. per_group);
  let lo, hi = Util.Stats.min_max samples in
  Alcotest.(check bool) "spread exists" true (hi -. lo > 0.01 *. per_group)

let test_inventory_table () =
  let rows = Core.Inventory.rows () in
  Alcotest.(check int) "7 components" 7 (List.length rows);
  List.iter
    (fun r -> Alcotest.(check int) "3 columns" 3 (List.length r))
    rows

let suite =
  [
    Alcotest.test_case "workflow completes" `Slow test_workflow_completes;
    Alcotest.test_case "time budget shape" `Slow test_workflow_time_budget_shape;
    Alcotest.test_case "archive written" `Slow test_workflow_archive_written;
    Alcotest.test_case "pion mass positive" `Slow test_workflow_pion_mass_positive;
    Alcotest.test_case "campaign group perf" `Quick test_campaign_group_performance;
    Alcotest.test_case "campaign utilization" `Quick test_campaign_simulation_utilization;
    Alcotest.test_case "mpi_jm beats naive" `Quick test_campaign_mpi_jm_beats_naive;
    Alcotest.test_case "fig7 histogram samples" `Quick test_campaign_histogram_samples;
    Alcotest.test_case "inventory table" `Quick test_inventory_table;
  ]
