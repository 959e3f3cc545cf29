(* Reference implementation of the Wilson stencil and the Möbius Schur
   chain, kept as a test oracle: the slice-by-slice formulation — per
   s-slice s-combination, a whole 4D hop, then the -1/2 scale, and the
   adjoint as a gamma5-sandwiched hop followed by the adjoint
   s-combination — written with loops over spin/colour and no fusion.
   Serial, single right-hand side, independent of Dirac.Wilson (own
   index tables, links decoded through Lattice.Recon). The production
   kernels must match it bit for bit. *)

open Bigarray
module Field = Linalg.Field
module Mobius = Dirac.Mobius
module Gamma = Dirac.Gamma

let fps = Gamma.floats_per_site

type kernel = {
  n_sites : int;
  src_fwd : int array;
  src_bwd : int array;
  gauge_fwd : int array;
  gauge_bwd : int array;
  links : Lattice.Recon.t;
}

let full ~recon geom gauge =
  let n = Lattice.Geometry.volume geom in
  let bwd = Lattice.Geometry.bwd_table geom in
  {
    n_sites = n;
    src_fwd = Lattice.Geometry.fwd_table geom;
    src_bwd = bwd;
    gauge_fwd = Array.init (n * 4) (fun e -> e);
    gauge_bwd = Array.init (n * 4) (fun e -> (bwd.(e) * 4) + (e mod 4));
    links = Lattice.Recon.pack_field recon (Lattice.Gauge.data gauge);
  }

let checkerboard ~recon geom gauge ~parity =
  let half = Lattice.Geometry.half_volume geom in
  let tab f = Array.init (half * 4) (fun e ->
      let x = Lattice.Geometry.site_of_eo geom ~parity ~index:(e / 4) in
      f x (e mod 4))
  in
  {
    n_sites = half;
    src_fwd = tab (fun x mu -> Lattice.Geometry.(eo_index geom (fwd geom x mu)));
    src_bwd = tab (fun x mu -> Lattice.Geometry.(eo_index geom (bwd geom x mu)));
    gauge_fwd = tab (fun x mu -> (x * 4) + mu);
    gauge_bwd = tab (fun x mu -> (Lattice.Geometry.bwd geom x mu * 4) + mu);
    links = Lattice.Recon.pack_field recon (Lattice.Gauge.data gauge);
  }

(* dst <- H src: the half-spinor kernel, one site at a time *)
let hop k ~(src : Field.t) ~(dst : Field.t) =
  let acc = Array.make fps 0. in
  let h0 = Array.make 6 0. and h1 = Array.make 6 0. in
  let g0 = Array.make 6 0. and g1 = Array.make 6 0. in
  let uf = Array.make 18 0. in
  let packed = Array.make 18 0. in
  for x = 0 to k.n_sites - 1 do
    Array.fill acc 0 fps 0.;
    for mu = 0 to 3 do
      let g = Gamma.gammas.(mu) in
      let pa = g.Gamma.perm.(0) and pb = g.Gamma.perm.(1) in
      let p0r = g.Gamma.phase.(0).Linalg.Cplx.re
      and p0i = g.Gamma.phase.(0).Linalg.Cplx.im in
      let p1r = g.Gamma.phase.(1).Linalg.Cplx.re
      and p1i = g.Gamma.phase.(1).Linalg.Cplx.im in
      for side = 0 to 1 do
        let sign = if side = 0 then -1. else 1. in
        let e = (x * 4) + mu in
        let nb = (if side = 0 then k.src_fwd.(e) else k.src_bwd.(e)) * fps in
        Lattice.Recon.decode_sub k.links
          ~link:(if side = 0 then k.gauge_fwd.(e) else k.gauge_bwd.(e))
          ~packed uf;
        for c = 0 to 2 do
          let o0 = nb + (c * 2) and opa = nb + (((pa * 3) + c) * 2) in
          let s0r = src.{o0} and s0i = src.{o0 + 1} in
          let sar = src.{opa} and sai = src.{opa + 1} in
          h0.(c * 2) <- s0r +. (sign *. ((p0r *. sar) -. (p0i *. sai)));
          h0.((c * 2) + 1) <- s0i +. (sign *. ((p0r *. sai) +. (p0i *. sar)));
          let o1 = nb + ((3 + c) * 2) and opb = nb + (((pb * 3) + c) * 2) in
          let s1r = src.{o1} and s1i = src.{o1 + 1} in
          let sbr = src.{opb} and sbi = src.{opb + 1} in
          h1.(c * 2) <- s1r +. (sign *. ((p1r *. sbr) -. (p1i *. sbi)));
          h1.((c * 2) + 1) <- s1i +. (sign *. ((p1r *. sbi) +. (p1i *. sbr)))
        done;
        for row = 0 to 2 do
          let r0 = ref 0. and i0 = ref 0. and r1 = ref 0. and i1 = ref 0. in
          for col = 0 to 2 do
            let e = if side = 0 then 2 * ((3 * row) + col) else 2 * ((3 * col) + row) in
            let ur = uf.(e) and ui = if side = 0 then uf.(e + 1) else -.uf.(e + 1) in
            r0 := !r0 +. ((ur *. h0.(col * 2)) -. (ui *. h0.((col * 2) + 1)));
            i0 := !i0 +. ((ur *. h0.((col * 2) + 1)) +. (ui *. h0.(col * 2)));
            r1 := !r1 +. ((ur *. h1.(col * 2)) -. (ui *. h1.((col * 2) + 1)));
            i1 := !i1 +. ((ur *. h1.((col * 2) + 1)) +. (ui *. h1.(col * 2)))
          done;
          g0.(row * 2) <- !r0;
          g0.((row * 2) + 1) <- !i0;
          g1.(row * 2) <- !r1;
          g1.((row * 2) + 1) <- !i1
        done;
        for c = 0 to 2 do
          let gr = g0.(c * 2) and gi = g0.((c * 2) + 1) in
          acc.(c * 2) <- acc.(c * 2) +. gr;
          acc.((c * 2) + 1) <- acc.((c * 2) + 1) +. gi;
          let oa = ((pa * 3) + c) * 2 in
          acc.(oa) <- acc.(oa) +. (sign *. ((p0r *. gr) +. (p0i *. gi)));
          acc.(oa + 1) <- acc.(oa + 1) +. (sign *. ((p0r *. gi) -. (p0i *. gr)));
          let hr = g1.(c * 2) and hi = g1.((c * 2) + 1) in
          let o1 = (3 + c) * 2 in
          acc.(o1) <- acc.(o1) +. hr;
          acc.(o1 + 1) <- acc.(o1 + 1) +. hi;
          let ob = ((pb * 3) + c) * 2 in
          acc.(ob) <- acc.(ob) +. (sign *. ((p1r *. hr) +. (p1i *. hi)));
          acc.(ob + 1) <- acc.(ob + 1) +. (sign *. ((p1r *. hi) -. (p1i *. hr)))
        done
      done
    done;
    for j = 0 to fps - 1 do
      dst.{(x * fps) + j} <- acc.(j)
    done
  done

(* Wilson M = (4 + mass) - H/2 and M^dag = g5 M g5 *)
let wilson_apply k ~mass ~(src : Field.t) ~(dst : Field.t) =
  hop k ~src ~dst;
  for i = 0 to (k.n_sites * fps) - 1 do
    dst.{i} <- ((4. +. mass) *. src.{i}) -. (0.5 *. dst.{i})
  done

let wilson_apply_dagger k ~mass ~src ~dst =
  let tmp = Field.create (Field.length src) in
  Gamma.apply_gamma5 src tmp;
  let out = Field.create (Field.length dst) in
  wilson_apply k ~mass ~src:tmp ~dst:out;
  Gamma.apply_gamma5 out dst

(* out_s = diag src_s + off (P- src_{s+1} + P+ src_{s-1}) per slice,
   corners -m·off; [dagger] swaps which chirality reads which side. *)
let combine_slice p ~diag ~off ~dagger ~n4 ~s ~(src : Field.t) ~(out : Field.t) ~out_base =
  let l5 = p.Mobius.l5 and m = p.Mobius.mass in
  let prev = if s = 0 then ((l5 - 1) * n4 * fps, -.m *. off) else ((s - 1) * n4 * fps, off) in
  let next = if s = l5 - 1 then (0, -.m *. off) else ((s + 1) * n4 * fps, off) in
  let (up_base, up_scale), (dn_base, dn_scale) =
    if dagger then (next, prev) else (prev, next)
  in
  for site = 0 to n4 - 1 do
    let o = (s * n4 * fps) + (site * fps) in
    let po = out_base + (site * fps) in
    for k = 0 to 11 do
      out.{po + k} <- (diag *. src.{o + k}) +. (up_scale *. src.{up_base + (site * fps) + k})
    done;
    for k = 12 to 23 do
      out.{po + k} <- (diag *. src.{o + k}) +. (dn_scale *. src.{dn_base + (site * fps) + k})
    done
  done

let apply_m5 ?(dagger = false) p ~n4 ~src ~dst =
  for s = 0 to p.Mobius.l5 - 1 do
    combine_slice p ~diag:(Mobius.diag_a p) ~off:(Mobius.diag_b p) ~dagger ~n4 ~s ~src
      ~out:dst ~out_base:(s * n4 * fps)
  done

let scale_into ~accumulate (dst : Field.t) base (v : Field.t) =
  for k = 0 to Field.length v - 1 do
    dst.{base + k} <-
      (if accumulate then dst.{base + k} -. (0.5 *. v.{k}) else -0.5 *. v.{k})
  done

(* dst_s (+)= -(1/2) H phi_s *)
let apply_hop p k ~n4 ~src ~dst ~accumulate =
  let phi = Field.create (n4 * fps) and scratch = Field.create (n4 * fps) in
  for s = 0 to p.Mobius.l5 - 1 do
    combine_slice p ~diag:p.Mobius.b5 ~off:p.Mobius.c5 ~dagger:false ~n4 ~s ~src
      ~out:phi ~out_base:0;
    hop k ~src:phi ~dst:scratch;
    scale_into ~accumulate dst (s * n4 * fps) scratch
  done

(* Hop^dag = -(1/2) Phi^dag (g5 H g5) *)
let apply_hop_dagger p k ~n4 ~(src : Field.t) ~dst ~accumulate =
  let ht = Field.create (p.Mobius.l5 * n4 * fps) in
  let slice_in = Field.create (n4 * fps) and slice_out = Field.create (n4 * fps) in
  for s = 0 to p.Mobius.l5 - 1 do
    Field.blit (Array1.sub src (s * n4 * fps) (n4 * fps)) slice_in;
    Gamma.apply_gamma5 slice_in slice_in;
    hop k ~src:slice_in ~dst:slice_out;
    Gamma.apply_gamma5 slice_out slice_out;
    Field.blit slice_out (Array1.sub ht (s * n4 * fps) (n4 * fps))
  done;
  let phi = Field.create (n4 * fps) in
  for s = 0 to p.Mobius.l5 - 1 do
    combine_slice p ~diag:p.Mobius.b5 ~off:p.Mobius.c5 ~dagger:true ~n4 ~s ~src:ht
      ~out:phi ~out_base:0;
    scale_into ~accumulate dst (s * n4 * fps) phi
  done

(* ---- the operators ---- *)

type full_op = { fp : Mobius.params; fk : kernel; n4 : int }

let of_geometry ~recon p geom gauge =
  { fp = p; fk = full ~recon geom gauge; n4 = Lattice.Geometry.volume geom }

let apply t ~src ~dst =
  apply_m5 t.fp ~n4:t.n4 ~src ~dst;
  apply_hop t.fp t.fk ~n4:t.n4 ~src ~dst ~accumulate:true

let apply_dagger t ~src ~dst =
  apply_m5 ~dagger:true t.fp ~n4:t.n4 ~src ~dst;
  apply_hop_dagger t.fp t.fk ~n4:t.n4 ~src ~dst ~accumulate:true

type eo = { p : Mobius.params; to_even : kernel; to_odd : kernel; half : int }

let of_geometry_eo ~recon p geom gauge =
  {
    p;
    to_even = checkerboard ~recon geom gauge ~parity:0;
    to_odd = checkerboard ~recon geom gauge ~parity:1;
    half = Lattice.Geometry.half_volume geom;
  }

let len eo = eo.p.Mobius.l5 * eo.half * fps
let create eo = Field.create (len eo)

let hop_eo eo ~to_parity ~src ~dst =
  apply_hop eo.p
    (if to_parity = 0 then eo.to_even else eo.to_odd)
    ~n4:eo.half ~src ~dst ~accumulate:false

let hop_eo_dagger eo ~from_parity ~src ~dst =
  apply_hop_dagger eo.p
    (if from_parity = 0 then eo.to_odd else eo.to_even)
    ~n4:eo.half ~src ~dst ~accumulate:false

let sub_into (dst : Field.t) (t : Field.t) =
  for k = 0 to Field.length dst - 1 do
    dst.{k} <- dst.{k} -. t.{k}
  done

let apply_schur eo ~src ~dst =
  let t1 = create eo and t2 = create eo in
  hop_eo eo ~to_parity:0 ~src ~dst:t1;
  Mobius.apply_m5inv eo.p ~n4:eo.half ~src:t1 ~dst:t2;
  hop_eo eo ~to_parity:1 ~src:t2 ~dst:t1;
  apply_m5 eo.p ~n4:eo.half ~src ~dst;
  sub_into dst t1

let apply_schur_dagger eo ~src ~dst =
  let t1 = create eo and t2 = create eo in
  hop_eo_dagger eo ~from_parity:1 ~src ~dst:t1;
  Mobius.apply_m5inv_dagger eo.p ~n4:eo.half ~src:t1 ~dst:t2;
  hop_eo_dagger eo ~from_parity:0 ~src:t2 ~dst:t1;
  apply_m5 ~dagger:true eo.p ~n4:eo.half ~src ~dst;
  sub_into dst t1

let apply_schur_normal eo ~src ~dst =
  let tmp = create eo in
  apply_schur eo ~src ~dst:tmp;
  apply_schur_dagger eo ~src:tmp ~dst

let prepare_rhs eo ~rhs_even ~rhs_odd =
  let t1 = create eo and t2 = create eo in
  Mobius.apply_m5inv eo.p ~n4:eo.half ~src:rhs_even ~dst:t1;
  hop_eo eo ~to_parity:1 ~src:t1 ~dst:t2;
  let out = Field.copy rhs_odd in
  sub_into out t2;
  out

let reconstruct_even eo ~rhs_even ~x_odd =
  let t1 = create eo in
  hop_eo eo ~to_parity:0 ~src:x_odd ~dst:t1;
  let t2 = Field.copy rhs_even in
  sub_into t2 t1;
  let out = create eo in
  Mobius.apply_m5inv eo.p ~n4:eo.half ~src:t2 ~dst:out;
  out
