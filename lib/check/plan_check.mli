(** Static analyses over the plan IR — every rule fires from the plan
    alone, before a single kernel runs. The one analyzer for launch
    plans: pooled, fused, batched and stencil launches all lift into
    the IR.

    - [PLAN001/002/006] effect and aliasing: pooled partitions must
      tile [0, n) with neither overlap nor gap, kernel outputs must
      never alias another operand (static mirror of the
      [Linalg.Fused.same_data] runtime guard), steps must reference
      declared buffers.
    - [PLAN007/008] launch parameters: a declared reduction [block]
      must be [Linalg.Field.reduce_block] (error); a pooled launch
      ([geometry = Some (d, _)], d > 1) over fewer than
      [Linalg.Field.parallel_cutoff] floats is a warning — the kernels
      run such a launch serially.
    - [PLAN003/004] transport windows: no write into a buffer whose
      halo post window is open (an error under zero-copy, where the
      payload aliases the field in flight — HALO011 at plan level; a
      warning under staged), and post/complete must balance.
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

val verify_plans : Plan_ir.plan list -> Diagnostic.t list

val lint_fusion :
  n:int ->
  mode:Linalg.Fused.mode ->
  geometry:(int * int) option ->
  Diagnostic.t list
(** Static lint of one fusion-axis candidate: the CG vector tail under
    the given mode/geometry choice, errors only. [Unfused] lints the
    5-sweep classic tail, [Tail_fused] the 2-sweep model-priced tail
    (strict PLAN005), [Fused] the 3-sweep separate-dot fallback (not
    model-priced; PLAN001/002 still vet). Wrapped as the [~lint] of
    [Autotune.Variants.tune_fusion], which runs it over every launch's
    [mode] and [geometry] so no plan the analyzer rejects can be
    priced or cached. *)

val catalog_diagnostics : unit -> Diagnostic.t list
(** Verify every plan in {!Plan_extract.catalog} — the standard-suite
    pass. Clean since the stencil-tail fusion: zero diagnostics,
    warnings included. *)
