(* Umbrella entry point: the re-exported passes, plus the standard
   suite that verifies the repo's shipped example artifacts — the
   campaign the examples build, the halo protocol recorded from the
   domain-decomposed operator and solver, the default workflow spec, an
   instrumented mixed-precision solve, live recon and deflation audits
   and the solver plan catalog. bin/neutron_check drives this;
   `dune build @check` and the test suite gate on it. *)

module F = Linalg.Field

(* check.ml is the library's main module: re-export the passes so
   users see Check.Diagnostic, Check.Dag_check, ... *)
module Diagnostic = Diagnostic
module Dag_check = Dag_check
module Halo_check = Halo_check
module Numeric_check = Numeric_check
module Spec_check = Spec_check
module Recon_check = Recon_check
module Deflate_check = Deflate_check
module Plan_ir = Plan_ir
module Plan_record = Plan_record
module Plan_check = Plan_check
module Fixtures = Fixtures

let all_rules =
  [
    ("campaign", Dag_check.rules);
    ("halo", Halo_check.rules);
    ("numeric", Numeric_check.rules);
    ("spec", Spec_check.rules);
    ("recon", Recon_check.rules);
    ("deflate", Deflate_check.rules);
    ("plan", Plan_check.rules);
  ]

(* ---- the shipped-example artifacts, verified ---- *)

let standard_suite () : Diagnostic.report =
  let seed = 20_180_920 in
  let rng = Util.Rng.create seed in
  (* the co-scheduling campaign of examples/job_manager and Fig 6 *)
  let tasks =
    Jobman.Pipeline.campaign ~batch:4 ~n_props:64 ~prop_nodes:4 ~duration:600.
      rng
  in
  let campaign_ds = Dag_check.verify ~n_nodes:32 tasks in
  (* the halo protocol Vrank.Comm and Dd_wilson run, recorded: the
     blocking and the overlapped hop at both granularities, and one CG
     iteration of Dd_solve, under the staged transport and under
     zero-copy, each with its honest policy. Double_buffered is left
     out: nothing writes between a post and its complete, so every
     recording under it pays copies for nothing — HALO012, the
     wasted-double-buffer fixture. *)
  let recordings =
    List.concat_map
      (fun (transport, transfer) ->
        List.map
          (fun (run, granularity) ->
            let policy = { Machine.Policy.transfer; granularity } in
            (transport, policy, Halo_check.recorded transport run))
          [
            (Halo_check.Blocking, Machine.Policy.Coarse);
            (Overlapped Fine, Fine);
            (Overlapped Coarse, Coarse);
            (Solve, Fine);
          ])
      [ (Machine.Transport.Staged, Machine.Policy.Staged_mpi); (Zero_copy, Zero_copy) ]
  in
  let halo_ds =
    List.concat_map
      (fun (transport, policy, (dd, ops)) ->
        Halo_check.verify_schedule ~transport ~policy dd.Vrank.Dd_wilson.dom ops)
      recordings
  in
  (* the live Comm each recorded run leaves behind must audit clean *)
  let audit_ds =
    List.concat_map
      (fun (_, _, (dd, _)) -> Halo_check.audit (Vrank.Dd_wilson.comm dd))
      recordings
  in
  (* the default workflow spec, in double and mixed precision *)
  let spec_ds =
    Spec_check.workflow_spec Core.Workflow.default_spec
    @ Spec_check.workflow_spec
        {
          Core.Workflow.default_spec with
          Core.Workflow.precision =
            Solver.Dwf_solve.Mixed Solver.Mixed.default_config;
        }
  in
  (* numeric: a gaussian field through the codec analysis, and an
     instrumented mixed solve against a clean SPD operator *)
  let numeric_ds =
    let n = 16 * 24 in
    let v = F.create n in
    F.gaussian rng v;
    let codec_ds = Numeric_check.half_blocks ~block:24 v in
    let apply (x : F.t) (y : F.t) =
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set y i
          ((2.5 +. (float_of_int (i mod 24) /. 100.))
          *. Bigarray.Array1.unsafe_get x i)
      done
    in
    let b = F.create n in
    F.gaussian rng b;
    codec_ds @ Numeric_check.probe_mixed_solve ~apply ~b ()
  in
  (* every recorded solver plan through the static analyzer —
     effects, sweep pricing, precision flow. The fused CG plans execute
     exactly the 2 sweeps the model prices, so any diagnostic here
     (warnings included) is a regression. *)
  let plan_ds = Plan_check.catalog_diagnostics () in
  (* the gauge fields the recon path packs: a reunitarized hot field
     audited at every codec — the clean twin of the
     recon-nonunitary-link fixture *)
  let recon_ds =
    let g = Lattice.Gauge.random (Lattice.Geometry.create [| 4; 4; 4; 4 |]) rng in
    Lattice.Gauge.reunitarize g;
    List.concat_map
      (fun c -> Recon_check.verify_gauge ~recon:c g)
      Linalg.Su3_codec.all
  in
  (* the deflated-solve path the ?deflate hooks run: a real Lanczos
     space on a small-eigenvalue SPD operator, audited live against
     the operator and the configuration hash it was built from — the
     clean twin of the deflate-* fixtures. Must verify silent. *)
  let deflate_ds =
    let n = 96 in
    let diag =
      Array.init n (fun i ->
          if i < 4 then 0.01 *. float_of_int (i + 1)
          else 1. +. (float_of_int i /. float_of_int n))
    in
    let apply (x : F.t) (y : F.t) =
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set y i
          (diag.(i) *. Bigarray.Array1.unsafe_get x i)
      done
    in
    let lrng = Util.Rng.create (seed + 1) in
    let res =
      Solver.Lanczos.lowest ~tol:1e-8 ~rank:2 ~basis_size:10 ~apply ~n
        ~rng:lrng ()
    in
    let hash =
      let probe = F.create n in
      F.gaussian lrng probe;
      Solver.Deflate.field_hash probe
    in
    let space = Solver.Deflate.of_lanczos ~bound:1e-6 ~config_hash:hash res in
    Deflate_check.verify_space ~config_hash:hash ~apply space
  in
  [
    ("campaign DAG (Jobman.Pipeline)", campaign_ds);
    ("halo schedules (Vrank.Comm)", halo_ds);
    ("halo runtime audit", audit_ds);
    ("workflow + solver specs", spec_ds);
    ("numeric sanitizer + half codec", numeric_ds);
    ("compressed gauge links (recon)", recon_ds);
    ("deflated solves (low-mode spaces)", deflate_ds);
    ("solver plans (static analyzer)", plan_ds);
  ]

(* Selftest: every seeded defect fixture must be detected. Returns
   (fixture, fired rule ids, detected?) rows. Warnings count as fired:
   some defect classes (wasted double-buffer copies, HALO012; an
   under-cutoff pooled launch, PLAN008) are warnings by design, and a
   fixture must still prove they trigger. *)
let selftest () =
  List.map
    (fun (f : Fixtures.t) ->
      let ds = f.Fixtures.run () in
      let fired =
        List.sort_uniq compare
          (List.filter_map
             (fun (d : Diagnostic.t) ->
               match d.Diagnostic.severity with
               | Diagnostic.Error | Diagnostic.Warning -> Some d.Diagnostic.rule
               | Diagnostic.Info -> None)
             ds)
      in
      (f, fired, List.mem f.Fixtures.expect fired))
    Fixtures.all
