(* Floating-point operation accounting, in two flavours:

   - [actual_*]: what this OCaml implementation really executes per
     site, derived from the kernel structure (half-spinor Wilson
     stencil, M5d recursions, BLAS-1).

   - [paper_*]: the conventional LQCD counts the paper reports against
     ("10,000-12,000 flops per five-dimensional lattice point" for the
     red-black preconditioned Mobius normal operator, arithmetic
     intensity 1.8-1.9). The performance model uses these so figure
     reproductions are in the paper's own units. *)

(* Wilson half-spinor stencil per output site:
   8 direction-sides x (projection 6 cadd + 2 SU(3) matvecs + 12
   reconstruct/accumulate cadds) with cadd = 2 flops, cmul = 6 flops.
   SU(3) matvec on a half-spinor row pair: handled as 2 matvecs of
   66 flops each. *)
let matvec = 66
let wilson_hop_per_site = 8 * ((6 * 2) + (2 * matvec) + (12 * 2))

(* Full Wilson op adds axpy-like diagonal: 2 flops per float. *)
let wilson_apply_per_site = wilson_hop_per_site + (2 * 24)

(* M5d: per float, one multiply-add pair for diagonal + one for the
   s-neighbour = 4 flops. *)
let m5_per_5d_site = 4 * 24

(* M5inv: substitution (2 flops/float) + corner correction (2) ~ 4. *)
let m5inv_per_5d_site = 4 * 24

(* combine_slice: 4 flops per float. *)
let combine_per_5d_site = 4 * 24

(* One hop_eo application per 5D site: combine + wilson hop + scale. *)
let hop5_per_5d_site = combine_per_5d_site + wilson_hop_per_site + 24

(* Schur S = M5 - Hop M5inv Hop: 2 hops + m5inv + m5 + subtract. *)
let schur_per_5d_site =
  (2 * hop5_per_5d_site) + m5inv_per_5d_site + m5_per_5d_site + 24

(* Normal operator = S^dag S = 2 Schur + 2 G5R5 copies (0 flops). *)
let schur_normal_per_5d_site = 2 * schur_per_5d_site

(* BLAS-1 in CG per iteration per 5D site, unfused (dot p.Ap, axpy x,
   axpy r, norm2 r, xpay p — five kernels, each 2 flops per float over
   24 floats): the paper quotes 50-100 flops per site for these. *)
let cg_blas1_per_5d_site = 5 * 2 * 24

(* Fused path (Solver.Cg ~fused / Linalg.Fused): same updates plus the
   p.r orthogonality monitor riding the xpay sweep, 2 extra flops per
   float. More flops, fewer bytes — the fused trade. *)
let cg_blas1_fused_per_5d_site = cg_blas1_per_5d_site + (2 * 24)

(* Double-precision bytes the CG BLAS-1 tail moves per iteration per
   5D site in this implementation. Unfused, 5 kernels: dot (2 reads) +
   axpy x (2r+1w) + axpy r (2r+1w) + norm2 (1r) + xpay (2r+1w) = 12
   float-passes. Fused, 2 kernels: cg_update (4r+2w) + xpay_dot
   (2r+1w; q = r is one of the reads) = 9 — the p·Ap reads ride the
   stencil's tail (Wilson.hop_tail / Mobius.apply_schur_normal_tail),
   so they are priced with the stencil traffic, not the BLAS-1 tail.
   There is no whitelisted gap between this accounting and
   Machine.Perf_model's sweep pricing any more: Check.Plan_check
   PLAN005 derives the gap from the recorded plan and errors on any
   nonzero value. *)
let cg_blas1_bytes_per_5d_site ~fused =
  (if fused then 9 else 12) * 24 * 8

(* ---- Paper conventions ---- *)

(* "between 10,000-12,000 floating point operations per
   five-dimensional lattice point" for the preconditioned stencil. *)
let paper_stencil_per_5d_site = 11_000.

(* Arithmetic intensity of the half-precision CG (flops per byte). *)
let paper_arithmetic_intensity = 1.9

(* Percent-of-peak correction: not all ops issue as FMA and reductions
   run in double, a 1.675x scaling on the raw solver flops (Sec VI). *)
let paper_peak_scaling = 1.675

(* Bytes touched per 5D site per stencil application in half precision:
   derived from the paper's own numbers (flops / intensity). *)
let paper_bytes_per_5d_site =
  paper_stencil_per_5d_site /. paper_arithmetic_intensity

(* Our implementation's memory traffic per 5D site for the Schur
   stencil in double precision: spinor in (9 pt stencil, 24 floats) +
   gauge (8 links x 18) + write, x8 bytes — a rough effective number
   used only for reporting the OCaml kernels' bandwidth. *)
let actual_bytes_per_5d_site_double =
  (* two wilson hops within the Schur op dominate *)
  float_of_int (2 * (((9 * 24) + (8 * 18) + 24) * 8))
