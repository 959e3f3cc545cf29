(* Conjugate gradient on the domain-decomposed Wilson normal operator:
   the complete distributed solver code path. Every operator
   application performs a halo exchange (counted by Comm.stats); every
   inner product is a per-rank partial sum combined across ranks — the
   "allreduce" whose latency the machine model charges. Ranks execute
   sequentially, so the result is bit-identical run to run and can be
   checked against the single-domain solver. *)

module Domain = Lattice.Domain
module Field = Linalg.Field
module Wilson = Dirac.Wilson

type fields = Field.t array  (* one per rank *)

let fps = Wilson.floats_per_site

type t = {
  dd : Dd_wilson.t;
  dom : Domain.t;
  mass : float;
  granularity : Machine.Policy.granularity;
      (* fine: per-face boundary compute as halos land; coarse: one
         boundary sweep after all faces complete (Sec. V policy axis) *)
  mutable allreduces : int;
}

(* The halo transport (Staged / Zero_copy / Double_buffered) rides in
   on the Dd_wilson operator's Comm: every exchange this solver posts
   uses it. CG never writes a source field while its exchange is in
   flight, so all three transports solve bit-identically — which the
   transport test suite asserts. *)
let create ?(granularity = Machine.Policy.Fine) dd ~mass =
  { dd; dom = dd.Dd_wilson.dom; mass; granularity; allreduces = 0 }

let transport t = Comm.transport (Dd_wilson.comm t.dd)

let n_ranks t = Domain.n_ranks t.dom

let local_len t r =
  (Domain.rank_geometry t.dom r).Domain.local_volume * fps

let ext_len t r = (Domain.rank_geometry t.dom r).Domain.ext_volume * fps

let create_local t : fields = Array.init (n_ranks t) (fun r -> Field.create (local_len t r))
let create_ext t : fields = Array.init (n_ranks t) (fun r -> Field.create (ext_len t r))

(* distributed BLAS over the local (non-ghost) portions *)
let dot t (a : fields) (b : fields) =
  t.allreduces <- t.allreduces + 1;
  let acc = ref 0. in
  for r = 0 to n_ranks t - 1 do
    let n = local_len t r in
    for i = 0 to n - 1 do
      acc :=
        !acc
        +. (Bigarray.Array1.unsafe_get a.(r) i *. Bigarray.Array1.unsafe_get b.(r) i)
    done
  done;
  !acc

let axpy t alpha (x : fields) (y : fields) =
  for r = 0 to n_ranks t - 1 do
    let n = local_len t r in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set y.(r) i
        (Bigarray.Array1.unsafe_get y.(r) i
        +. (alpha *. Bigarray.Array1.unsafe_get x.(r) i))
    done
  done

let xpay t (x : fields) alpha (y : fields) =
  for r = 0 to n_ranks t - 1 do
    let n = local_len t r in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set y.(r) i
        (Bigarray.Array1.unsafe_get x.(r) i
        +. (alpha *. Bigarray.Array1.unsafe_get y.(r) i))
    done
  done

let copy_local_into_ext t (src : fields) (dst : fields) =
  for r = 0 to n_ranks t - 1 do
    let n = local_len t r in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set dst.(r) i (Bigarray.Array1.unsafe_get src.(r) i)
    done
  done

(* gamma5 on local portions (pointwise in sites). *)
let apply_gamma5_local t (v : fields) =
  for r = 0 to n_ranks t - 1 do
    let rg = Domain.rank_geometry t.dom r in
    let sites = rg.Domain.local_volume in
    for site = 0 to sites - 1 do
      let base = site * fps in
      for k = 12 to 23 do
        Bigarray.Array1.unsafe_set v.(r) (base + k)
          (-.Bigarray.Array1.unsafe_get v.(r) (base + k))
      done
    done
  done

(* dst(local) <- M src where src is given in local layout; scratch_ext
   holds the exchanged extended copy. M = (4+m) - H/2. *)
let apply_wilson t ~(scratch_ext : fields) (src : fields) (dst : fields) =
  copy_local_into_ext t src scratch_ext;
  Dd_wilson.hop_overlapped ~granularity:t.granularity t.dd ~fields:scratch_ext
    ~dsts:dst;
  let d = 4. +. t.mass in
  for r = 0 to n_ranks t - 1 do
    let n = local_len t r in
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set dst.(r) i
        ((d *. Bigarray.Array1.unsafe_get src.(r) i)
        -. (0.5 *. Bigarray.Array1.unsafe_get dst.(r) i))
    done
  done

(* normal operator M^dag M using gamma5-hermiticity *)
let apply_normal t ~scratch_ext ~scratch_local (src : fields) (dst : fields) =
  apply_wilson t ~scratch_ext src scratch_local;
  apply_gamma5_local t scratch_local;
  apply_wilson t ~scratch_ext scratch_local dst;
  apply_gamma5_local t dst
(* note: M^dag v = g5 M g5 v; composing, M^dag M = g5 M g5 M. The two
   gamma5s around the middle cancel into the form above:
   g5 M (g5 (M src)) — implemented as M, g5, M, g5. *)

(* Distributed CG on M^dag M x = M^dag b, with b and x in GLOBAL layout
   for convenience. Returns the global solution and solver stats. *)
let solve_normal ?(tol = 1e-10) ?(max_iter = 5000) t ~(b_global : Field.t) =
  let t_start = Util.Clock.now_s () in
  let comm = Dd_wilson.comm t.dd in
  let scatter (g : Field.t) : fields =
    Array.init (n_ranks t) (fun r -> Domain.scatter_field t.dom ~dof:fps g r)
  in
  let scratch_ext = create_ext t in
  let scratch_local = create_local t in
  let b = scatter b_global in
  (* rhs = M^dag b = g5 M g5 b *)
  let rhs = create_local t in
  apply_gamma5_local t b;
  apply_wilson t ~scratch_ext b rhs;
  apply_gamma5_local t rhs;
  apply_gamma5_local t b;
  (* restore b *)
  let x = create_local t in
  let r = create_local t in
  for rk = 0 to n_ranks t - 1 do
    Field.blit rhs.(rk) r.(rk)
  done;
  let p = create_local t in
  for rk = 0 to n_ranks t - 1 do
    Field.blit r.(rk) p.(rk)
  done;
  let ap = create_local t in
  let b2 = dot t rhs rhs in
  let target = tol *. tol *. b2 in
  if not (Float.is_finite b2) then invalid_arg "Dd_solve.solve_normal: non-finite b";
  let r2 = ref (dot t r r) in
  let iters = ref 0 in
  while !r2 > target && !iters < max_iter do
    incr iters;
    apply_normal t ~scratch_ext ~scratch_local p ap;
    let pap = dot t p ap in
    let alpha = !r2 /. pap in
    axpy t alpha p x;
    axpy t (-.alpha) ap r;
    let r2' = dot t r r in
    let beta = r2' /. !r2 in
    r2 := r2';
    xpay t r beta p
  done;
  (* a zero M^dag b never enters the loop (r2 = b2 = 0): x = 0 solves
     it exactly, so its residual is 0, not 0/0 *)
  let x_global = Domain.gather_field t.dom ~dof:fps x in
  (* full-halo exchanges only: the count that is comparable with
     [Comm.halo_bytes_per_rank]-based byte estimates (partial-face
     exchanges are tallied separately in [Comm.stats]) *)
  let exchanges = (Comm.stats comm).Comm.full_exchanges in
  ( x_global,
    {
      Solver.Cg.iterations = !iters;
      converged = !r2 <= target;
      relative_residual = (if b2 = 0. then 0. else sqrt (!r2 /. b2));
      true_relative_residual = None;
      flops = 0.;
      seconds = Util.Clock.now_s () -. t_start;
      reliable_updates = 0;
    },
    `Exchanges exchanges,
    `Allreduces t.allreduces )
