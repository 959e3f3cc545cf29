(** Distributed CG on the domain-decomposed Wilson normal operator:
    halo exchange inside every application, per-rank partial sums
    combined for every inner product (the all-reduce the machine model
    charges). Deterministic; checked against the single-domain CGNE. *)

type t

val create :
  ?granularity:Machine.Policy.granularity -> Dd_wilson.t -> mass:float -> t
(** [granularity] selects fine-grained (default; per-face boundary
    compute as each halo lands) or coarse-grained (one boundary sweep
    after all faces complete) halo completion inside every operator
    application — one axis [Autotune.Comm_tune] tunes. The other, the
    halo transport, rides in on the [Dd_wilson] operator (see
    [Dd_wilson.create ?transport]); all three transports solve
    bit-identically because CG never writes a source while its
    exchange is in flight. *)

val transport : t -> Comm.transport
(** The halo transport every exchange of this solver uses. *)

val solve_normal :
  ?tol:float ->
  ?max_iter:int ->
  t ->
  b_global:Linalg.Field.t ->
  Linalg.Field.t
  * Solver.Cg.stats
  * [ `Exchanges of int ]
  * [ `Allreduces of int ]
(** Solve M†M x = M†b with b given in global layout; returns the
    gathered global solution plus communication counts. [`Exchanges]
    counts full-halo exchanges only, so it is comparable with
    [Comm.halo_bytes_per_rank] estimates. A zero M†b returns x = 0
    after 0 iterations, converged, with relative residual 0.
    @raise Invalid_argument on a non-finite |M†b|². *)
