(** Analytic performance model for the mixed-precision red-black CG on
    a GPU machine — regenerates the scaling studies of Figs. 3–7.
    Calibrated only from Table II specs and the paper's stated achieved
    bandwidths (139/516/975 GB/s per GPU), never from the figures it
    predicts. *)

type problem = { dims : int array; l5 : int }

val problem : dims:int array -> l5:int -> problem
val sites_4d : problem -> int

val flops_per_site : float
val bytes_per_site : float
val peak_scaling : float
val arithmetic_intensity : float
val halo_bytes_per_face_site : float

val halo_bytes_per_face_site_double : float
(** The same face site shipped uncompressed (12 double-precision
    reals, 96 bytes) — the wire an unCompressed [Vrank.Comm] pays,
    priced by the [?compress:(Some false)] knob of
    {!stencil_breakdown}. *)

val compress_codec_passes : float
(** Memory passes over the double-precision face stream the explicit
    halo codec costs (encode send-side + decode recv-side). *)

val reference_local_sites : float

val solver_bw : Spec.t -> local_sites:float -> float
(** Occupancy-saturated solver bandwidth (bytes/s per GPU). *)

val grids : problem -> int -> int array list
(** All 4-factor process grids dividing the lattice dims. *)

val surface_sites : problem -> int array -> int
val best_grid : problem -> int -> int array option
(** Minimal-surface grid, or [None] if the count admits none. *)

val node_subgrid : Spec.t -> problem -> int array -> int array
(** Node-internal subgrid keeping the largest faces on NVLink. *)

val blas1_bytes_per_site_sweep : float
(** Bytes one full-vector BLAS-1 sweep moves per 5D site in the inner
    solver's half-precision storage (24 reals × 2 bytes). *)

val blas1_sweeps : fused:bool -> float
(** Full-vector memory sweeps of the CG BLAS-1 tail per iteration:
    5 unfused (axpy x, axpy r, norm2 r, xpay p, p·Ap), 2 fused
    (cg_update + xpay_dot; the model assumes the p·Ap reduction rides
    the stencil tail as in QUDA, so its sweep is accounted to the
    stencil in both columns). *)

val link_bytes_per_site : float
(** Gauge-link bytes one double-precision Wilson hop reads per site:
    8 neighbour links × 18 reals × 8 bytes = 1152. *)

val spinor_bytes_per_site : float
(** Spinor-stream bytes of the same hop per site per right-hand side:
    (9 × 24 + 24) reals × 8 bytes = 1920 — together with
    {!link_bytes_per_site} the per-hop half of
    [Dirac.Flops.actual_bytes_per_5d_site_double]. *)

val mrhs_bytes_per_site : k:int -> float
(** Modeled bytes per site per right-hand side of a batched
    [Dirac.Wilson.hop_multi] at batch width [k]: the spinor stream
    stays per-vector while the gauge links are loaded once for the
    batch, so this is [spinor + link/k]. [k = 1] recovers the
    single-RHS figure. Raises [Invalid_argument] on [k < 1]. *)

val mrhs_traffic_ratio : k:int -> float
(** [mrhs_bytes_per_site ~k / mrhs_bytes_per_site ~k:1] — the modeled
    traffic fraction a width-[k] batch moves per RHS. *)

val link_bytes_per_site_recon : recon:Linalg.Su3_codec.codec -> float
(** Gauge-link bytes per site when the hop streams a compressed link
    store ([Lattice.Recon]): 8 links × [Su3_codec.reals] × 8 bytes —
    1152 ([Full18]), 768 ([Recon12]), 512 ([Recon8]). The per-link
    sign byte is negligible metadata and excluded. *)

val mrhs_bytes_per_site_recon :
  recon:Linalg.Su3_codec.codec -> k:int -> float
(** The codec axis composed with the batch-width axis: bytes per site
    per RHS of a width-[k] [Dirac.Wilson.hop_multi] on a
    recon-compressed link store — [spinor + link(recon)/k].
    [~recon:Full18 ~k:1] recovers [mrhs_bytes_per_site ~k:1]. Raises
    [Invalid_argument] on [k < 1]. *)

val recon_traffic_ratio : recon:Linalg.Su3_codec.codec -> k:int -> float
(** [mrhs_bytes_per_site_recon ~recon ~k / mrhs_bytes_per_site ~k:1]
    — the modeled traffic fraction against the uncompressed
    single-RHS hop. *)

val deflation_setup_applies : rank:int -> basis:int -> restarts:int -> int
(** Operator applications of a thick-restart Lanczos build
    ([Solver.Lanczos.lowest]): [basis + restarts·(basis − rank)] —
    the first cycle fills the working basis, each later cycle keeps
    the [rank] Ritz pairs and refills the rest. Raises
    [Invalid_argument] unless [1 ≤ rank < basis] and [restarts ≥ 0]. *)

val deflation_setup_flops :
  rank:int ->
  basis:int ->
  restarts:int ->
  n:int ->
  flops_per_apply:float ->
  float
(** Setup flops over vectors of [n] floats: applies·[flops_per_apply]
    + applies·8n·basis (two CGS reorthogonalization passes of
    dot + axpy per filled slot) + (restarts+1)·basis²·2n (the
    Rayleigh–Ritz projection dots per cycle). *)

val deflation_guess_flops : rank:int -> n:int -> float
(** Per-solve cost of the deflated guess: rank dots + one rank-wide
    [Multi_blas.block_axpy] combination = 4·rank·n flops. *)

val deflation_amortized_flops : setup_flops:float -> solves:int -> float
(** Setup flops charged to each of the campaign's [solves] solves.
    Raises [Invalid_argument] on [solves < 1]. *)

val deflated_condition : lambda_max:float -> lambda_cut:float -> float
(** Condition number after deflating every mode below [lambda_cut]
    (the (rank+1)-th eigenvalue): [lambda_max / lambda_cut] — the
    Ritz-compressed spectrum CG actually sees. *)

val deflation_iteration_ratio : kappa:float -> kappa_deflated:float -> float
(** Predicted iteration fraction [sqrt(kappa_deflated / kappa)] from
    the classical CG bound ([Solver.Eigen.cg_iteration_bound]; the
    tolerance factor cancels in the ratio). *)

val deflation_break_even_solves :
  setup_s:float -> t_undeflated_s:float -> t_deflated_s:float -> float
(** Solves before the setup pays for itself:
    [setup_s / (t_undeflated_s − t_deflated_s)], or [infinity] when
    deflation does not reduce the per-solve cost. *)

type breakdown = {
  grid : int array;
  local_sites : float;
  t_stencil : float;
  t_comm_intra : float;
  t_comm_inter : float;
  t_latency : float;
  t_overhead : float;
  t_copy : float;
      (** transport extra-copy time ([Transport.Double_buffered] pays
          one rotation copy of the halo payload at GPU memory
          bandwidth; zero for [Staged]/[Zero_copy]) *)
  blas1_sweeps_per_iter : float;
      (** CG BLAS-1 tail sweeps per iteration under the priced fusion
          mode (5 unfused / 2 fused); 0 when [?fusion] is omitted *)
  blas1_bytes : float;
      (** bytes those sweeps move per iteration; 0 when [?fusion] is
          omitted *)
  t_blas1 : float;
      (** [blas1_bytes] at solver bandwidth plus one kernel launch per
          sweep; included in [t_total] only when [?fusion] is passed *)
  t_total : float;
  halo_bytes_intra : float;
  halo_bytes_inter : float;
  face_times : (int * float) list;
      (** Per posted face [(id, seconds)], ids 0–7 for decomposed dims
          only: message time including per-message latency. This is the
          completion schedule the fine-grained policy pipelines its
          boundary sub-stencils against; the times sum to
          [t_comm_intra + t_comm_inter + t_latency] under a fine
          policy. *)
}

type result = {
  machine : Spec.t;
  n_gpus : int;
  policy : Policy.t;
  transport : Transport.t;
  tflops_total : float;
  tflops_per_gpu : float;
  percent_peak : float;
  bw_per_gpu_gbs : float;
  breakdown : breakdown;
}

val stencil_breakdown :
  ?transport:Transport.t ->
  ?fusion:bool ->
  ?compress:bool ->
  Spec.t ->
  Policy.t ->
  problem ->
  n_gpus:int ->
  breakdown option
(** [transport] (default [Staged]) prices the halo buffer management
    into [t_copy]; [fusion] prices the CG iteration's BLAS-1 memory
    traffic into [t_blas1] at the fused ([Some true], 2 sweeps) or
    unfused ([Some false], 5 sweeps) rate.
    [compress] prices the halo wire format: omitted keeps the
    calibrated numbers (the paper's achieved bandwidths already absorb
    its compressed wire); [Some true] keeps the compressed face bytes
    but charges the codec explicitly ([compress_codec_passes] over the
    double-precision face stream at GPU memory bandwidth, into
    [t_copy]); [Some false] ships faces uncompressed
    ([halo_bytes_per_face_site_double], no codec). [Some true] with
    [Zero_copy] raises [Invalid_argument] — no staging buffer to
    compress, the constraint [Vrank.Comm.create] enforces. The
    defaults leave the calibrated numbers unchanged. *)

val solver_performance :
  ?transport:Transport.t ->
  ?compress:bool ->
  Spec.t ->
  Policy.t ->
  problem ->
  n_gpus:int ->
  result option

val best_policy : Spec.t -> problem -> n_gpus:int -> result option
(** What the communication autotuner would pick: the fastest available
    policy under the default [Staged] transport and calibrated wire. *)

type mpi_stack = Spectrum | Open_mpi | Mvapich2 | Metaq_jsrun

val stack_name : mpi_stack -> string
val application_efficiency : float
val stack_factor : mpi_stack -> float

val group_performance :
  Spec.t -> problem -> group_gpus:int -> stack:mpi_stack -> float option
(** Whole-application sustained TFlops of one solve group. *)

val weak_scaling_point :
  Spec.t -> problem -> group_gpus:int -> stack:mpi_stack -> n_gpus:int -> float option
(** Aggregate TFlops of [n_gpus] running independent groups. *)
