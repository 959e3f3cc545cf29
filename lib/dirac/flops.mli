(** Floating-point operation accounting: [actual_*]/structural counts
    of the OCaml kernels per (5D) site, and the paper's conventional
    LQCD counts ([paper_*]) the performance model reports against. *)

val matvec : int
val wilson_hop_per_site : int
val wilson_apply_per_site : int
val m5_per_5d_site : int
val m5inv_per_5d_site : int
val combine_per_5d_site : int
val hop5_per_5d_site : int
val schur_per_5d_site : int
val schur_normal_per_5d_site : int
val cg_blas1_per_5d_site : int
(** Unfused CG BLAS-1 flops per iteration per 5D site (5 kernels). *)

val cg_blas1_fused_per_5d_site : int
(** Fused-path flops: the unfused count plus the p·r orthogonality
    monitor riding the xpay sweep (2 extra flops per float). *)

val cg_blas1_bytes_per_5d_site : fused:bool -> int
(** Double-precision bytes the CG BLAS-1 tail moves per iteration per
    5D site: 12 float-passes unfused, 9 fused — the p·Ap reads ride
    the stencil tail ([Dirac.Wilson.hop_tail]), so they are priced
    with the stencil traffic. *)

val paper_stencil_per_5d_site : float
(** "10,000–12,000 flops per five-dimensional lattice point". *)

val paper_arithmetic_intensity : float
val paper_peak_scaling : float
val paper_bytes_per_5d_site : float
val actual_bytes_per_5d_site_double : float
