(** Static analyses over the plan IR — every rule fires from the plan
    alone. The one analyzer for launch plans: the pooled, fused,
    batched and stencil launches a recording holds
    ({!Plan_record}). Halo post/complete schedules are [Halo_check]'s.

    - [PLAN001/002/006] effect and aliasing: pooled partitions must
      tile [0, n) with neither overlap nor gap, kernel outputs must
      never alias another operand ([Util.Prof.aliased] over buffer
      names — the rule [Linalg.Field.launch] checks at runtime), steps
      must reference declared buffers.
    - [PLAN007/008] launch parameters: a declared reduction [block]
      must be [Linalg.Field.reduce_block] (error); a pooled launch
      ([geometry = Some (d, _)], d > 1) over fewer than
      [Linalg.Field.parallel_cutoff] floats is a warning — the kernels
      run such a launch serially.
    - [PLAN005] model consistency: the IR's BLAS-1 sweep total must
      equal [Machine.Perf_model.blas1_sweeps] exactly. The historical
      stencil-tail exemption is gone — [Dirac.Wilson.hop_tail] /
      [Dirac.Mobius.apply_schur_normal_tail] ride the p·Ap reduction
      on the stencil's closing sweep, so any nonzero {!sweep_gap} is a
      live regression and errors.
    - [PREC001-004] precision flow: abstract interpretation over a
      magnitude-interval × quantization-error state per buffer,
      flagging half-codec overflow, underflow, dynamic-range
      violations, stale-precision reads and malformed quantize
      points. The interval propagation assumes no catastrophic
      cancellation (the reliable-update scheme exists to bound exactly
      that). *)

val rules : (string * string) list

val sweep_gap : Plan_ir.plan -> int option
(** IR BLAS-1 sweep total minus [Machine.Perf_model.blas1_sweeps]'s
    price for the plan's declared fusion mode; [None] when the plan is
    not model-priced ([fusion = None]). Derived from the plan, never a
    hardcoded constant — zero for every catalog plan now that the
    stencil-tail fusion landed, and [neutron_check --plan] fails the
    run on any nonzero value. *)

val verify : Plan_ir.plan -> Diagnostic.t list
(** All passes over one plan, sorted errors-first. *)

val lint_fusion :
  n:int ->
  mode:Linalg.Fused.mode ->
  geometry:(int * int) option ->
  Diagnostic.t list
(** Lint of one fusion-axis candidate, errors only: the recording of
    [Autotune.Variants.run_fusion] for the launch of [mode] and
    [geometry] ({!Plan_record.fusion_tail}). [Unfused] and
    [Tail_fused] are model-priced (strict PLAN005); [Fused] is the
    unpriced separate-dot tail. Wrapped as the [~lint] of
    [Autotune.Variants.tune_fusion], which runs it over every
    candidate so no plan the analyzer rejects can be priced or
    cached. *)

val catalog_diagnostics : unit -> Diagnostic.t list
(** Verify every plan in {!Plan_record.catalog} — the standard-suite
    pass: zero diagnostics, warnings included. *)
