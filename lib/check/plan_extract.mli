(** Extraction of {!Plan_ir.plan}s from the real front-ends.

    Each builder mirrors the step sequence its front-end executes,
    with the kernel rows taken from the front-ends' own exports
    ([Solver.Cg.tail_kernels], [Solver.Mixed.inner_quantizes] /
    [reliable_update_kernels], [Solver.Bicgstab.tail_kernels],
    [Linalg.Fused.operand_roles]) so the IR cannot silently drift from
    the code. Stencil launches carry [sweeps = 0]: the performance
    model prices their traffic per site, not as BLAS-1 sweeps. *)

val cg_tail :
  ?n:int -> ?geometry:int * int -> fused:bool -> unit -> Plan_ir.plan
(** The BLAS-1 tail of one CG iteration on buffers p/ap/x/r — what
    [Autotune.Variants.run_fusion] executes for the [Unfused] and
    [Tail_fused] modes, and what the PLAN005 sweep cross-check diffs
    against [Machine.Perf_model.blas1_sweeps] (strict equality: fused
    is cg_update + xpay_dot, 2 sweeps — the p·Ap reduction rides the
    stencil). *)

val cg_tail_separate : ?n:int -> ?geometry:int * int -> unit -> Plan_ir.plan
(** The separate-dot fallback tail (dot_re + cg_update + xpay_dot,
    3 sweeps): what a fused solve without a tail-capable operator
    executes, and what [Autotune.Variants.run_fusion] executes for the
    [Fused] mode. Not model-priced ([fusion = None]); PLAN001/002
    still vet it. *)

val cg_iteration :
  ?n:int -> ?geometry:int * int -> fused:bool -> unit -> Plan_ir.plan
(** Full CG iteration: Schur-normal stencil followed by the tail.
    Fused, the stencil launch is the tail-capable [schur_normal_tail]
    carrying the p·Ap [Reduce] operand and the canonical reduction
    block. *)

val mixed :
  ?n:int ->
  ?range:float * float ->
  ?block:int ->
  fused:bool ->
  unit ->
  Plan_ir.plan
(** Double-half solve with reliable updates: outer residual init,
    inner-cycle seed, one inner iteration with quantize points exactly
    where [Solver.Mixed.solve] places them, one reliable update (an
    exact phase — deliberately unquantized). [range] is the abstract
    magnitude interval of the source at entry, the seed of the
    precision-flow pass. *)

val bicgstab_iteration : ?n:int -> fused:bool -> unit -> Plan_ir.plan
(** One full BiCGStab iteration, both stabilizer halves, stencil
    applies inserted where [Solver.Bicgstab.solve] runs them. *)

val dwf :
  ?n:int -> ?mixed_precision:bool -> fused:bool -> unit -> Plan_ir.plan
(** Domain-wall solve as the Schur composition [Solver.Dwf_solve]
    executes: split, prepare RHS, Schur-dagger, inner solve (plain CG
    or mixed), reconstruct even sites, merge. *)

val wilson_hop : ?sites:int -> ?geometry:int * int -> unit -> Plan_ir.plan

val wilson_hop_tail : ?sites:int -> ?geometry:int * int -> unit -> Plan_ir.plan
(** The tail-fused Wilson hop ([Dirac.Wilson.hop_tail]): stencil write
    plus per-tile xpay into a separate [out] buffer and a dot against
    [q] reduced through the canonical blocks. [out] aliasing [dst] is
    the seeded [Fixtures.plan_tail_aliased] hazard. *)

val wilson_hop_multi :
  ?k:int -> ?sites:int -> ?geometry:int * int -> unit -> Plan_ir.plan
(** The batched multi-RHS hop ([Dirac.Wilson.hop_multi]): one launch
    reading the gauge field once for [k] (default 4) src/dst spinor
    pairs, each declared as its own buffer so the aliasing pass vets
    the whole batch. Traffic is priced per site by
    [Machine.Perf_model.mrhs_bytes_per_site]. *)

val wilson_hop_recon :
  ?recon:Linalg.Su3_codec.codec ->
  ?k:int ->
  ?sites:int ->
  ?geometry:int * int ->
  unit ->
  Plan_ir.plan
(** The compressed-gauge batched hop ([Dirac.Wilson.hop_multi] on a
    [Lattice.Recon] store, default codec [Recon12], default [k] 4):
    the gauge buffer carries its codec as a [Su3] precision tag with a
    seeded magnitude range — the precision pass treats it as a
    register-reconstructed stream, so a [Quantize] step against it is
    a PREC004 error. Traffic is priced per site by
    [Machine.Perf_model.mrhs_bytes_per_site_recon]. *)

val cg_tail_multi :
  ?n:int -> ?geometry:int * int -> fused:bool -> unit -> Plan_ir.plan
(** The per-iteration BLAS-1 tail of [Solver.Cg.solve_multi], rows
    from [Solver.Cg.multi_tail_kernels]: the p·Ap dot_re per RHS, then
    fused the two [Linalg.Multi_blas] batch kernels (3 sweeps, not
    model-priced, like {!cg_tail_separate}), unfused the four scalar
    kernels per RHS (5 sweeps; PLAN005 against
    [Machine.Perf_model.blas1_sweeps] must report [sweep_gap = Some 0]). *)

val cg_deflate : ?n:int -> ?rank:int -> ?geometry:int * int -> unit -> Plan_ir.plan
(** The once-per-solve deflation prologue of [Solver.Cg.solve ?deflate]
    (the one row of [Solver.Deflate.augment_multi] on its batch of one,
    plus the exact residual refresh): [rank]
    (default 4) Galerkin coefficient dots through the canonical blocked
    reduction, one [Linalg.Multi_blas.block_axpy] launch folding the
    corrections into [x], then the stencil apply and [b − Ax]
    subtraction. Not model-priced ([fusion = None] — the prologue
    amortizes over the campaign, not per iteration); PLAN001/002 still
    vet the basis reads and the apply's dst. *)

val mobius_hop : ?n4:int -> unit -> Plan_ir.plan
(** Pooled stencil launches; [mobius_hop] partitions 4D sites ([n]
    counts sites; every s-slice of a site runs on one lane). *)

val pooled_axpy : ?n:int -> ?geometry:int * int -> unit -> Plan_ir.plan

val catalog : (string * (unit -> Plan_ir.plan)) list
(** Every named plan the analyzer knows how to extract, as exposed by
    [neutron_check --plan]. *)

val find : string -> (unit -> Plan_ir.plan) option
