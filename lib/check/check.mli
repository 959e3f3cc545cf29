(** Umbrella entry point of the static verification & sanitizer
    subsystem: the per-artifact passes, re-exported below (call them
    directly, e.g. [Check.Dag_check.verify]), the standard suite over
    the repo's shipped example artifacts, and the seeded-defect
    selftest. Driven by [bin/neutron_check] and the [@check] dune
    alias. *)

module Diagnostic : module type of Diagnostic
module Dag_check : module type of Dag_check
module Halo_check : module type of Halo_check
module Numeric_check : module type of Numeric_check
module Spec_check : module type of Spec_check
module Recon_check : module type of Recon_check
module Deflate_check : module type of Deflate_check
module Plan_ir : module type of Plan_ir
module Plan_record : module type of Plan_record
module Plan_check : module type of Plan_check
module Fixtures : module type of Fixtures

val all_rules : (string * (string * string) list) list
(** Pass name → its rule catalog. *)

val standard_suite : unit -> Diagnostic.report
(** Verify the shipped example artifacts: the co-scheduling campaign,
    the halo protocol recorded from live runs ([Halo_check.recorded]:
    the blocking and both overlapped hops and one [Dd_solve]
    iteration, staged and zero-copy) and an audit of the live Comm
    each leaves, the default workflow specs (double
    and mixed), an instrumented clean mixed solve, a reunitarized
    gauge field audited at every recon codec, a live low-mode
    deflation space audited against its operator and configuration
    hash, and every solver plan in {!Plan_record.catalog} through the
    static analyzer. Must report zero errors and zero warnings. *)

val selftest : unit -> (Fixtures.t * string list * bool) list
(** Run every seeded defect fixture; each row is (fixture, error and
    warning rule ids fired, expected rule detected?). Warnings count
    because some defect classes (wasted double-buffer copies, HALO012;
    an under-cutoff pooled launch, PLAN008) are warnings by design. *)
