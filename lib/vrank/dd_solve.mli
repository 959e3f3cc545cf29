(** Distributed CG on the domain-decomposed Wilson normal operator:
    [Solver.Cg.solve] over one rank-major vector (rank r's local sites
    are its r-th block), with the halo exchange inside every operator
    application and every inner product one global sum over the
    ranks' partial sums (the all-reduce the machine model charges).
    Deterministic; checked against the single-domain CGNE. *)

type t

val create : Dd_wilson.t -> mass:float -> t
(** The halo transport rides in on the [Dd_wilson] operator (see
    [Dd_wilson.create ?transport]); all three transports solve
    bit-identically because CG never writes a source while its
    exchange is in flight. Every application runs
    [Dd_wilson.hop_overlapped] with fine-grained halo completion. *)

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
    gathered global solution, [Cg.solve]'s stats (true residual, flops
    at 2·volume·[Dirac.Flops.wilson_apply_per_site] per application)
    and two cumulative communication counts. [`Exchanges] is
    [Comm.stats]' [full_exchanges], comparable with
    [Comm.halo_bytes_per_rank] estimates. [`Allreduces] counts global
    sums: each solve adds 2·iterations + 2 (|b|² at entry, which is
    |r₀|² too, p·Ap and |r|² per iteration, the closing |b − Ax|²),
    or 1 for a zero b, which returns x = 0 after 0 iterations,
    converged, with relative residual 0. The host-side check of the
    caller's global b is not one of them.
    @raise Invalid_argument on a non-finite b, or a b that is not
    volume·24 floats. *)
