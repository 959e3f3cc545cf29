(** Umbrella entry point of the static verification & sanitizer
    subsystem: per-artifact passes ([Dag_check], [Halo_check],
    [Numeric_check], [Spec_check]), the standard suite over the
    repo's shipped example artifacts, and the seeded-defect selftest.
    Driven by [bin/neutron_check] and the [@check] dune alias. *)

module Diagnostic : module type of Diagnostic
module Dag_check : module type of Dag_check
module Halo_check : module type of Halo_check
module Numeric_check : module type of Numeric_check
module Spec_check : module type of Spec_check
module Recon_check : module type of Recon_check
module Deflate_check : module type of Deflate_check
module Plan_ir : module type of Plan_ir
module Plan_extract : module type of Plan_extract
module Plan_check : module type of Plan_check
module Fixtures : module type of Fixtures

val campaign : ?n_nodes:int -> Jobman.Pipeline.task list -> Diagnostic.t list
val halo_audit : Vrank.Comm.t -> Diagnostic.t list
val half_blocks : block:int -> Linalg.Field.t -> Diagnostic.t list

val probe_mixed_solve :
  ?config:Solver.Mixed.config ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  b:Linalg.Field.t ->
  unit ->
  Diagnostic.t list

val workflow_spec : Core.Workflow.spec -> Diagnostic.t list
val mixed_config : n:int -> Solver.Mixed.config -> Diagnostic.t list

val solver_plan : Plan_ir.plan -> Diagnostic.t list
(** The full static analyzer ({!Plan_check.verify}) over one plan. *)

val all_rules : (string * (string * string) list) list
(** Pass name → its rule catalog. *)

val standard_suite : ?seed:int -> unit -> Diagnostic.report
(** Verify the shipped example artifacts: the co-scheduling campaign,
    the simple and overlapped halo schedules, a live Comm audit, the
    default workflow specs (double and mixed), an instrumented clean
    mixed solve, the compressed gauge-link (recon) audits and
    launches, a live low-mode deflation space audited against its
    operator and configuration hash, and every plan in
    {!Plan_extract.catalog} through the static analyzer — the pooled,
    fused and batched launch plans included. Must report zero errors
    and zero warnings. *)

val selftest : unit -> (Fixtures.t * string list * bool) list
(** Run every seeded defect fixture; each row is (fixture, error and
    warning rule ids fired, expected rule detected?). Warnings count
    because some defect classes (wasted double-buffer copies, HALO012;
    an under-cutoff pooled launch, PLAN008) are warnings by design. *)
