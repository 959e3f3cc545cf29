(* End-to-end Mobius domain-wall solves: the propagator kernel of the
   paper's workflow (Fig 2). Wires the red-black preconditioned Schur
   operator into CG (double or mixed double-half), with the
   unpreconditioned normal-equation path kept as the oracle. *)

module Field = Linalg.Field
module Mobius = Dirac.Mobius

type precision = Double | Mixed of Mixed.config

type t = {
  params : Mobius.params;
  geom : Lattice.Geometry.t;
  full : Mobius.t;
  eo : Mobius.eo;
}

(* [gauge] must already carry the fermion boundary phases
   (Lattice.Gauge.with_antiperiodic_time). *)
let create params geom gauge =
  {
    params;
    geom;
    full = Mobius.of_geometry params geom gauge;
    eo = Mobius.of_geometry_eo params geom gauge;
  }

let field_length t = Mobius.field_length t.full
let geom_of t = t.geom
let params_of t = t.params

(* Solve D x = rhs through the even/odd Schur complement:
     1. y'_o = y_o - Hop_oe M5inv y_e
     2. CG on S^dag S x_o = S^dag y'_o
     3. x_e = M5inv (y_e - Hop_eo x_o)  *)
let solve ?(precision = Double) ?(fused = false) ?(tol = 1e-10)
    ?(max_iter = 10_000) t ~(rhs : Field.t) =
  let l5 = t.params.Mobius.l5 in
  let rhs_even, rhs_odd = Mobius.split_eo t.geom ~l5 rhs in
  let y' = Mobius.prepare_rhs t.eo ~rhs_even ~rhs_odd in
  (* normal-equation right-hand side: S^dag y' *)
  let b = Mobius.create_eo_field t.eo in
  Mobius.apply_schur_dagger t.eo ~src:y' ~dst:b;
  let apply src dst = Mobius.apply_schur_normal t.eo ~src ~dst in
  (* Tail-capable operator for the fused path: the p·Ap reduction of
     the CG iteration rides the Schur chain's closing sweep
     (Mobius.apply_schur_normal_tail) instead of a separate dot_re —
     the 2-sweep BLAS-1 plan. Bit-identical to apply + dot_re. *)
  let apply_dot src dst =
    Mobius.apply_schur_normal_tail t.eo ~src ~dst
      ~tail:(Linalg.Fused.tail ~dot:src ())
  in
  let n5_half =
    float_of_int (l5 * Lattice.Geometry.half_volume t.geom)
  in
  let flops_per_apply = n5_half *. float_of_int Dirac.Flops.schur_normal_per_5d_site in
  let x_odd, stats =
    match precision with
    | Double -> Cg.solve ~fused ~apply ~apply_dot ~b ~tol ~max_iter ~flops_per_apply ()
    | Mixed config ->
      let x, st =
        Mixed.solve ~config:{ config with tol; max_iter } ~fused ~apply ~b
          ~flops_per_apply ()
      in
      if st.Cg.converged then (x, st)
      else
        (* Half-precision noise floor reached: polish in double from
           the mixed solution, counting both phases. *)
        let x2, st2 =
          Cg.solve ~x0:x ~fused ~apply ~apply_dot ~b ~tol ~max_iter
            ~flops_per_apply ()
        in
        ( x2,
          {
            st2 with
            Cg.iterations = st.Cg.iterations + st2.Cg.iterations;
            flops = st.Cg.flops +. st2.Cg.flops;
            seconds = st.Cg.seconds +. st2.Cg.seconds;
            reliable_updates = st.Cg.reliable_updates;
          } )
  in
  let x_even = Mobius.reconstruct_even t.eo ~rhs_even ~x_odd in
  let x = Mobius.merge_eo t.geom ~l5 ~even:x_even ~odd:x_odd in
  (x, stats)

(* Oracle path: CG on the unpreconditioned D^dag D, at most 20,000
   iterations. *)
let solve_full ?(tol = 1e-10) t ~(rhs : Field.t) =
  let b = Mobius.create_field t.full in
  Mobius.apply_dagger t.full ~src:rhs ~dst:b;
  let apply src dst = Mobius.apply_normal t.full ~src ~dst in
  let n5 = float_of_int (t.params.Mobius.l5 * Lattice.Geometry.volume t.geom) in
  let flops_per_apply =
    n5 *. 2. *. float_of_int (Dirac.Flops.hop5_per_5d_site + Dirac.Flops.m5_per_5d_site)
  in
  Cg.solve ~apply ~b ~tol ~max_iter:20_000 ~flops_per_apply ()

(* Residual check in the full 5D space: |D x - rhs| / |rhs|. *)
let residual t ~x ~rhs =
  let dx = Mobius.create_field t.full in
  Mobius.apply t.full ~src:x ~dst:dx;
  let diff = Field.create (Field.length rhs) in
  Field.sub dx rhs diff;
  sqrt (Field.norm2 diff /. Field.norm2 rhs)
