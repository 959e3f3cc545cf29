(* Conjugate gradient on the domain-decomposed Wilson normal operator:
   the complete distributed solver code path. [Solver.Cg.solve] runs
   unchanged over one rank-major vector whose rank-r block is that
   rank's local sites, so every inner product is one reduction over all
   ranks' partial sums (the allreduce the machine model charges) and
   the halo exchange lives inside the operator. Ranks execute
   sequentially, so the result is bit-identical run to run and can be
   checked against the single-domain solver. *)

module Domain = Lattice.Domain
module Field = Linalg.Field

let fps = Dirac.Wilson.floats_per_site

type t = { dd : Dd_wilson.t; mass : float; mutable allreduces : int }

(* The halo transport (Staged / Zero_copy / Double_buffered) rides in
   on the Dd_wilson operator's Comm: every exchange this solver posts
   uses it. CG never writes a source field while its exchange is in
   flight, so all three transports solve bit-identically — which the
   transport test suite asserts. *)
let create dd ~mass = { dd; mass; allreduces = 0 }

let transport t = Comm.transport (Dd_wilson.comm t.dd)

(* Each rank's block of a rank-major vector, as a view. Every rank of a
   Domain owns the same local volume. *)
let views t (v : Field.t) =
  let n_ranks = Domain.n_ranks t.dd.Dd_wilson.dom in
  let len = Field.length v / n_ranks in
  Array.init n_ranks (fun r -> Bigarray.Array1.sub v (r * len) len)

(* dst ← M src = (4 + m)·src − ½·H src on rank-major vectors. Copying a
   rank's block into its extended field writes its local sites, so its
   neighbors' ghosts of it stay stale until the hop's exchange. *)
let apply_wilson t ~ext src dst =
  let comm = Dd_wilson.comm t.dd in
  Array.iteri
    (fun r v ->
      Field.blit v (Bigarray.Array1.sub ext.(r) 0 (Field.length v));
      Comm.mark_written comm r)
    (views t src);
  Dd_wilson.hop_overlapped t.dd ~fields:ext ~dsts:(views t dst);
  Field.scale (-0.5) dst;
  Field.axpy (4. +. t.mass) src dst

(* CG on M†M x = M†b, with b and x in GLOBAL layout for convenience. *)
let solve_normal ?(tol = 1e-10) ?(max_iter = 5000) t ~(b_global : Field.t) =
  let dom = t.dd.Dd_wilson.dom in
  let comm = Dd_wilson.comm t.dd in
  (* host-side validation of the caller's global b, before it is
     distributed; not one of the solve's global sums *)
  let b2 = Field.norm2 b_global in
  if not (Float.is_finite b2) then invalid_arg "Dd_solve.solve_normal: non-finite b";
  let volume = Lattice.Geometry.volume (Domain.global dom) in
  let ext = Comm.create_fields comm in
  let tmp = Field.create (volume * fps) and rhs = Field.create (volume * fps) in
  Array.iteri
    (fun r v -> Field.blit (Domain.scatter_field dom ~dof:fps b_global r) v)
    (views t tmp);
  (* rhs = M†b = γ5 M γ5 b *)
  Dirac.Gamma.apply_gamma5 tmp tmp;
  apply_wilson t ~ext tmp rhs;
  Dirac.Gamma.apply_gamma5 rhs rhs;
  (* M†M = γ5 M γ5 M, through [tmp] *)
  let apply src dst =
    apply_wilson t ~ext src tmp;
    Dirac.Gamma.apply_gamma5 tmp tmp;
    apply_wilson t ~ext tmp dst;
    Dirac.Gamma.apply_gamma5 dst dst
  in
  let x, stats =
    Solver.Cg.solve ~apply ~b:rhs ~tol ~max_iter
      ~flops_per_apply:(float_of_int (2 * volume * Dirac.Flops.wilson_apply_per_site))
      ()
  in
  (* Cg's global sums: |b|² at entry (without a guess, |r₀|² is |b|²),
     p·Ap and |r|² per iteration, and the closing |b − Ax|², which a
     zero b skips *)
  t.allreduces <-
    (t.allreduces + if b2 = 0. then 1 else (2 * stats.Solver.Cg.iterations) + 2);
  (* full-halo exchanges only: the count that is comparable with
     [Comm.halo_bytes_per_rank]-based byte estimates (partial-face
     exchanges are tallied separately in [Comm.stats]) *)
  ( Domain.gather_field dom ~dof:fps (views t x),
    stats,
    `Exchanges (Comm.stats comm).Comm.full_exchanges,
    `Allreduces t.allreduces )
