(** Twenty-two seeded defect fixtures, each carrying exactly the bug
    class its pass detects: seven halo recordings of [Vrank.Dd_wilson]
    (five of them mutated), two campaigns, two numeric, eight
    plan-level, one recon and two deflation. The CLI
    [--selftest] and the test suite assert every fixture fires its
    expected rule (a warning for HALO012 and PLAN008, else an error). *)

type t = {
  name : string;
  defect : string;
  expect : string;  (** rule id expected to fire *)
  run : unit -> Diagnostic.t list;
}

val plan_partition_overlap : unit -> Diagnostic.t list
val plan_aliased_output : unit -> Diagnostic.t list
val plan_tail_aliased : unit -> Diagnostic.t list
val plan_sweep_mismatch : unit -> Diagnostic.t list
val plan_half_range : unit -> Diagnostic.t list
val plan_stale_precision : unit -> Diagnostic.t list
val plan_wrong_block : unit -> Diagnostic.t list
val plan_tiny_pooled : unit -> Diagnostic.t list

val all : t list
val find : string -> t option
