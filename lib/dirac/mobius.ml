(* Mobius domain-wall fermion operator. With D_W the Wilson kernel at
   mass -M5, P± = (1 ± gamma5)/2 and s the fifth dimension (s-outer
   field layout: slice s is a contiguous 4D spinor field):

     D psi_s = (b5 D_W + 1) psi_s
             + (c5 D_W - 1) (P- psi_{s+1} + P+ psi_{s-1})

   with the chiral boundary conditions psi_{L5} -> -m psi_0 (P- side)
   and psi_{-1} -> -m psi_{L5-1} (P+ side). Shamir domain wall is
   b5 = 1, c5 = 0; Mobius scales b5 + c5 = alpha with b5 - c5 = 1.

   Splitting D_W = (4 - M5) - H/2 into its site-diagonal and hopping
   parts separates D into

     D = M5d + Hop,   M5d = a + b (P- d_{s+1} + P+ d_{s-1}),
                      Hop = -(1/2) H (b5 + c5 (P- d_{s+1} + P+ d_{s-1}))

   with a = b5 (4 - M5) + 1 and b = c5 (4 - M5) - 1. M5d is diagonal in
   4D space and bidiagonal-cyclic in s per chirality, so it inverts in
   closed form (the m5inv below) — this is what makes the red-black
   (4D even/odd) Schur complement S = M5d - Hop_oe M5d^{-1} Hop_eo
   cheap, exactly as in the paper's production solver. *)

open Bigarray

type params = {
  l5 : int;
  m5 : float;  (* domain-wall height, in (0, 2) *)
  b5 : float;
  c5 : float;
  mass : float;  (* input quark mass m *)
}

let shamir ~l5 ~m5 ~mass = { l5; m5; b5 = 1.; c5 = 0.; mass }

let mobius ~l5 ~m5 ~alpha ~mass =
  { l5; m5; b5 = (alpha +. 1.) /. 2.; c5 = (alpha -. 1.) /. 2.; mass }

let diag_a p = (p.b5 *. (4. -. p.m5)) +. 1.
let diag_b p = (p.c5 *. (4. -. p.m5)) -. 1.

let fps = Gamma.floats_per_site

(* The code below hard-wires gamma5 = diag(1,1,-1,-1): spins 0,1 are
   the + chirality (coupled to s-1), spins 2,3 the - chirality
   (coupled to s+1). Checked here against the computed algebra. *)
let () =
  assert (Gamma.gamma5_diag = [| 1.; 1.; -1.; -1. |])

(* ---- field checks, once per public call ---- *)

let check_fields name ~len fields =
  List.iter
    (fun f ->
      if Linalg.Field.length f <> len then
        invalid_arg
          (Printf.sprintf "%s: field of %d floats, expected %d" name
             (Linalg.Field.length f) len))
    fields

(* An entry that is not recorded checks PLAN002's aliasing rule alone. *)
let check_aliasing name ~src ~dst =
  Linalg.Field.check_aliasing name Util.Prof.[ read src; write dst ]

(* ---- M5d: the 4D-site-diagonal, s-coupled part ---- *)

type coupling = M5d | Phi

(* dst_s = diag src_s + off (P- src_{s+1} + P+ src_{s-1}) on 4D sites
   [lo, hi) of every slice, corner factors -m·off: M5d has (diag, off)
   = (a, b), the hopping term's s-combination Phi has (b5, c5).

   [dagger] gives the adjoint. With U the up-shift (reads s+1, corner
   -m at s = L-1 from slice 0) and D the down-shift (reads s-1, corner
   -m at s = 0 from slice L-1), M5d = a + b (P- U + P+ D) and U^dag =
   D, so M5d^dag = a + b (P- D + P+ U): the chirality-to-shift
   association swaps. No aliasing. *)
let chiral_mix coupling ~dagger p ~n4 ~(src : Linalg.Field.t)
    ~(dst : Linalg.Field.t) lo hi =
  let diag = match coupling with M5d -> diag_a p | Phi -> p.b5 in
  let off = match coupling with M5d -> diag_b p | Phi -> p.c5 in
  let corner = -.p.mass *. off in
  let l5 = p.l5 and stride = n4 * fps in
  for s = 0 to l5 - 1 do
    let prev = if s = 0 then l5 - 1 else s - 1 in
    let next = if s = l5 - 1 then 0 else s + 1 in
    (* + chirality (spins 0,1) reads slice s-1, - chirality s+1 *)
    let plus = if dagger then next else prev in
    let minus = if dagger then prev else next in
    let plus_scale = if (if dagger then s = l5 - 1 else s = 0) then corner else off in
    let minus_scale = if (if dagger then s = 0 else s = l5 - 1) then corner else off in
    for site = lo to hi - 1 do
      let o = (s * stride) + (site * fps) in
      let op = (plus * stride) + (site * fps) in
      let om = (minus * stride) + (site * fps) in
      for k = 0 to 11 do
        Array1.unsafe_set dst (o + k)
          ((diag *. Array1.unsafe_get src (o + k))
          +. (plus_scale *. Array1.unsafe_get src (op + k)))
      done;
      for k = 12 to 23 do
        Array1.unsafe_set dst (o + k)
          ((diag *. Array1.unsafe_get src (o + k))
          +. (minus_scale *. Array1.unsafe_get src (om + k)))
      done
    done
  done

let m5 ~dagger p ~n4 ~src ~dst = chiral_mix M5d ~dagger p ~n4 ~src ~dst 0 n4

let check_m5 name p ~n4 ~src ~dst =
  check_fields name ~len:(p.l5 * n4 * fps) [ src; dst ];
  check_aliasing name ~src ~dst

let apply_m5 p ~n4 ~src ~dst =
  check_m5 "Mobius.apply_m5" p ~n4 ~src ~dst;
  m5 ~dagger:false p ~n4 ~src ~dst

let apply_m5_dagger p ~n4 ~src ~dst =
  check_m5 "Mobius.apply_m5_dagger" p ~n4 ~src ~dst;
  m5 ~dagger:true p ~n4 ~src ~dst

(* Closed-form inverse of M5d: per chirality and per component, solve
   the bidiagonal-cyclic system (a I + b C) x = y by forward (or
   backward) substitution plus a rank-one Sherman-Morrison correction
   for the -m corner. [chirality_swap] inverts M5d^dag instead. *)
let apply_m5inv_gen ~chirality_swap p ~n4 ~(src : Linalg.Field.t)
    ~(dst : Linalg.Field.t) =
  let a = diag_a p and b = diag_b p in
  let m = p.mass in
  let l5 = p.l5 in
  let r = -.b /. a in
  (* w_s = r^s / a solves (aI + bN) w = e_0 for the lower-shift N. *)
  let w = Array.make l5 0. in
  w.(0) <- 1. /. a;
  for s = 1 to l5 - 1 do
    w.(s) <- w.(s - 1) *. r
  done;
  let denom_plus = 1. -. (m *. b *. w.(l5 - 1)) in
  let denom_minus = denom_plus in
  let stride = n4 * fps in
  (* Which 12 floats couple to s-1 (forward substitution) vs s+1:
     for M5d it is the + chirality (spins 0,1 = floats 0..11); for
     M5d^dag the roles swap. *)
  let fwd_lo, bwd_lo = if chirality_swap then (12, 0) else (0, 12) in
  for site = 0 to n4 - 1 do
    let sb = site * fps in
    (* forward substitution in s *)
    for k = fwd_lo to fwd_lo + 11 do
      let o = sb + k in
      (* z_0 = y_0/a ; z_s = (y_s - b z_{s-1})/a, stored into dst *)
      Array1.unsafe_set dst o (Array1.unsafe_get src o /. a);
      for s = 1 to l5 - 1 do
        let cur = (s * stride) + o in
        let prev = ((s - 1) * stride) + o in
        Array1.unsafe_set dst cur
          ((Array1.unsafe_get src cur -. (b *. Array1.unsafe_get dst prev)) /. a)
      done;
      (* corner: x_{L-1} = z_{L-1}/denom; x_s = z_s + m b x_{L-1} w_s *)
      let x_last = Array1.unsafe_get dst (((l5 - 1) * stride) + o) /. denom_plus in
      let corr = m *. b *. x_last in
      for s = 0 to l5 - 2 do
        let cur = (s * stride) + o in
        Array1.unsafe_set dst cur (Array1.unsafe_get dst cur +. (corr *. w.(s)))
      done;
      Array1.unsafe_set dst (((l5 - 1) * stride) + o) x_last
    done;
    (* backward substitution in s *)
    for k = bwd_lo to bwd_lo + 11 do
      let o = sb + k in
      Array1.unsafe_set dst (((l5 - 1) * stride) + o)
        (Array1.unsafe_get src (((l5 - 1) * stride) + o) /. a);
      for s = l5 - 2 downto 0 do
        let cur = (s * stride) + o in
        let next = ((s + 1) * stride) + o in
        Array1.unsafe_set dst cur
          ((Array1.unsafe_get src cur -. (b *. Array1.unsafe_get dst next)) /. a)
      done;
      (* corner at row L-1 couples to x_0; w'_s = r^{L-1-s}/a *)
      let x_first = Array1.unsafe_get dst o /. denom_minus in
      let corr = m *. b *. x_first in
      for s = 1 to l5 - 1 do
        let cur = (s * stride) + o in
        Array1.unsafe_set dst cur
          (Array1.unsafe_get dst cur +. (corr *. w.(l5 - 1 - s)))
      done;
      Array1.unsafe_set dst o x_first
    done
  done

let apply_m5inv p ~n4 ~src ~dst =
  check_m5 "Mobius.apply_m5inv" p ~n4 ~src ~dst;
  apply_m5inv_gen ~chirality_swap:false p ~n4 ~src ~dst

let apply_m5inv_dagger p ~n4 ~src ~dst =
  check_m5 "Mobius.apply_m5inv_dagger" p ~n4 ~src ~dst;
  apply_m5inv_gen ~chirality_swap:true p ~n4 ~src ~dst

(* ---- Hop: the parity-changing (or full) hopping part ----
   One Wilson.stencil launch per hop for all L5 slices and k
   right-hand sides: the body fetches each link once per (site, mu,
   side) for every column, and the store below applies the -1/2 scale
   (and the accumulate) as it writes. Launches partition 4D sites, so
   each site's s-columns stay on one worker. *)

let[@inline] put ~accumulate (dst : Linalg.Field.t) i h =
  Array1.unsafe_set dst i
    (if accumulate then Array1.unsafe_get dst i -. (0.5 *. h) else -0.5 *. h)

let store_scaled ~l5 ~stride ~accumulate (dsts : Linalg.Field.t array)
    (acc : float array) x =
  for v = 0 to Array.length dsts - 1 do
    let dst = Array.unsafe_get dsts v in
    for s = 0 to l5 - 1 do
      let d = (s * stride) + (x * fps) and a = ((v * l5) + s) * fps in
      for j = 0 to fps - 1 do
        put ~accumulate dst (d + j) (Array.unsafe_get acc (a + j))
      done
    done
  done

(* A field per src, fully overwritten before it is read. *)
let scratch_like (srcs : Linalg.Field.t array) =
  Array.map (fun src -> Array1.create float64 c_layout (Array1.dim src)) srcs

(* dst_s = -(1/2) H phi_s (or dst_s - (1/2) H phi_s), phi = Phi src:
   the s-combination runs first, into the scratch [phis] (one field per
   src, none aliasing a src or dst), because the stencil reads it at
   neighbouring sites. *)
let apply_hop p kernel ~n4 ~(srcs : Linalg.Field.t array) ~phis ~dsts ~accumulate =
  Wilson.launch ~cols:(p.l5 * Array.length srcs) ~n:n4 (fun lo hi ->
      Array.iteri
        (fun v src -> chiral_mix Phi ~dagger:false p ~n4 ~src ~dst:phis.(v) lo hi)
        srcs);
  Wilson.stencil kernel ~l5:p.l5 ~src_stride:(n4 * fps) ~g5:false ~srcs:phis
    ~store:(store_scaled ~l5:p.l5 ~stride:(n4 * fps) ~accumulate dsts)

(* Adjoint hopping: Hop^dag = -(1/2) Phi^dag (g5 H g5). The body runs
   the gamma5-conjugated stencil (partner-spin loads negated); the
   store flips spins 2,3 (the outer gamma5), then forms the adjoint
   s-combination and scales by -1/2. Order matters — the projectors do
   not commute with the stencil's spin structure, which is why G5R5
   alone is not the Mobius adjoint — but the s-combination only mixes
   columns of one 4D site, so it runs in that site's store. *)
let store_adjoint p ~stride ~accumulate (dsts : Linalg.Field.t array)
    (acc : float array) x =
  let l5 = p.l5 and b5 = p.b5 and c5 = p.c5 in
  let corner = -.p.mass *. p.c5 in
  for v = 0 to Array.length dsts - 1 do
    let dst = Array.unsafe_get dsts v and col = v * l5 in
    for s = 0 to l5 - 1 do
      (* adjoint: + chirality reads slice s+1, - chirality s-1 *)
      let up = if s = l5 - 1 then 0 else s + 1 in
      let dn = if s = 0 then l5 - 1 else s - 1 in
      let up_scale = if s = l5 - 1 then corner else c5 in
      let dn_scale = if s = 0 then corner else c5 in
      let a = (col + s) * fps and au = (col + up) * fps and ad = (col + dn) * fps in
      let d = (s * stride) + (x * fps) in
      for j = 0 to 11 do
        put ~accumulate dst (d + j)
          ((b5 *. Array.unsafe_get acc (a + j))
          +. (up_scale *. Array.unsafe_get acc (au + j)))
      done;
      for j = 12 to 23 do
        put ~accumulate dst (d + j)
          ((b5 *. -.Array.unsafe_get acc (a + j))
          +. (dn_scale *. -.Array.unsafe_get acc (ad + j)))
      done
    done
  done

let apply_hop_dagger p kernel ~n4 ~srcs ~dsts ~accumulate =
  Wilson.stencil kernel ~l5:p.l5 ~src_stride:(n4 * fps) ~g5:true ~srcs
    ~store:(store_adjoint p ~stride:(n4 * fps) ~accumulate dsts)

(* ---- Full (unpreconditioned) operator ---- *)

type t = { p : params; kernel : Wilson.t; n4 : int }

let of_geometry ?recon p geom gauge =
  {
    p;
    kernel = Wilson.of_geometry ?recon geom gauge;
    n4 = Lattice.Geometry.volume geom;
  }

let field_length t = t.p.l5 * t.n4 * fps
let create_field t = Linalg.Field.create (field_length t)

let check_full name t ~src ~dst =
  check_fields name ~len:(field_length t) [ src; dst ];
  check_aliasing name ~src ~dst

let apply t ~src ~dst =
  check_full "Mobius.apply" t ~src ~dst;
  m5 ~dagger:false t.p ~n4:t.n4 ~src ~dst;
  apply_hop t.p t.kernel ~n4:t.n4 ~srcs:[| src |] ~phis:(scratch_like [| src |])
    ~dsts:[| dst |] ~accumulate:true

(* G5R5: slice s of dst = gamma5 (slice L5-1-s of src). Distinct fields. *)
let apply_g5r5 ~l5 ~n4 ~(src : Linalg.Field.t) ~(dst : Linalg.Field.t) =
  check_fields "Mobius.apply_g5r5" ~len:(l5 * n4 * fps) [ src; dst ];
  check_aliasing "Mobius.apply_g5r5" ~src ~dst;
  let stride = n4 * fps in
  for s = 0 to l5 - 1 do
    let sb = (l5 - 1 - s) * stride and db = s * stride in
    for site = 0 to n4 - 1 do
      let so = sb + (site * fps) and dlo = db + (site * fps) in
      for k = 0 to 11 do
        Array1.unsafe_set dst (dlo + k) (Array1.unsafe_get src (so + k))
      done;
      for k = 12 to 23 do
        Array1.unsafe_set dst (dlo + k) (-.Array1.unsafe_get src (so + k))
      done
    done
  done

(* D^dag built piecewise: M5d^dag + Hop^dag. (For c5 = 0 this equals
   G5R5 D G5R5; with c5 <> 0 the projectors do not commute with the
   stencil spin structure and the explicit adjoint is required.) *)
let apply_dagger t ~src ~dst =
  check_full "Mobius.apply_dagger" t ~src ~dst;
  m5 ~dagger:true t.p ~n4:t.n4 ~src ~dst;
  apply_hop_dagger t.p t.kernel ~n4:t.n4 ~srcs:[| src |] ~dsts:[| dst |]
    ~accumulate:true

(* Normal operator D^dag D for CG. *)
let apply_normal t ~src ~dst =
  let tmp = create_field t in
  apply t ~src ~dst:tmp;
  apply_dagger t ~src:tmp ~dst

(* ---- Red-black preconditioned operator ----
   4D even/odd decomposition: S = M5d - Hop_oe M5d^{-1} Hop_eo acting
   on odd-parity 5D fields (checkerboard-indexed slices). Every stage
   takes a batch of right-hand sides; the single-RHS entries are
   batches of one, so each dst is bit-identical to the independent
   single-RHS chain for any batch width and pool geometry. *)

type eo = {
  p : params;
  geom : Lattice.Geometry.t;
  kern_to_even : Wilson.t;  (* reads odd cb field, writes even cb field *)
  kern_to_odd : Wilson.t;
  half : int;
}

let of_geometry_eo ?recon p geom gauge =
  (* one packed store per checkerboard kernel: the whole Schur chain
     reconstructs links through Wilson's fetch, bit-identically for a
     fixed codec across pool geometries *)
  {
    p;
    geom;
    kern_to_even = Wilson.of_checkerboard ?recon geom gauge ~parity:0;
    kern_to_odd = Wilson.of_checkerboard ?recon geom gauge ~parity:1;
    half = Lattice.Geometry.half_volume geom;
  }

let eo_field_length eo = eo.p.l5 * eo.half * fps
let create_eo_field eo = Linalg.Field.create (eo_field_length eo)
let create_like eo fields = Array.map (fun _ -> create_eo_field eo) fields

let check_eo name eo fields = check_fields name ~len:(eo_field_length eo) fields

let check_eo_batch name eo ~(srcs : Linalg.Field.t array) ~dsts =
  let kw = Array.length srcs in
  if kw = 0 || Array.length dsts <> kw then
    invalid_arg (name ^ ": batch width mismatch");
  check_eo name eo (Array.to_list srcs @ Array.to_list dsts)

(* dst (parity p fields) = Hop_{p <- 1-p} src. *)
let hop_eo_gen eo ~to_parity ?phis ~srcs ~dsts () =
  let kernel = if to_parity = 0 then eo.kern_to_even else eo.kern_to_odd in
  let phis = match phis with Some f -> f | None -> scratch_like srcs in
  apply_hop eo.p kernel ~n4:eo.half ~srcs ~phis ~dsts ~accumulate:false

(* Hop_{p <- 1-p}^dag maps parity p back to 1-p: reads a field of
   parity [from_parity] and runs the opposite checkerboard kernel. *)
let hop_eo_dagger_gen eo ~from_parity ~srcs ~dsts =
  let kernel = if from_parity = 0 then eo.kern_to_odd else eo.kern_to_even in
  apply_hop_dagger eo.p kernel ~n4:eo.half ~srcs ~dsts ~accumulate:false

let sub_into (dst : Linalg.Field.t) (t : Linalg.Field.t) lo hi =
  for k = lo to hi - 1 do
    Array1.unsafe_set dst k (Array1.unsafe_get dst k -. Array1.unsafe_get t k)
  done

(* Schur complement on odd fields: dst = M5 src - Hop_oe M5inv Hop_eo src *)
let schur_gen eo ~srcs ~dsts =
  let t1s = create_like eo srcs and t2s = create_like eo srcs in
  (* t2s and dsts are free until M5inv and M5 write them: they hold the
     two hops' s-combinations, so the chain needs no further temporary *)
  hop_eo_gen eo ~to_parity:0 ~phis:t2s ~srcs ~dsts:t1s ();
  Array.iteri
    (fun v t1 -> apply_m5inv_gen ~chirality_swap:false eo.p ~n4:eo.half ~src:t1 ~dst:t2s.(v))
    t1s;
  hop_eo_gen eo ~to_parity:1 ~phis:dsts ~srcs:t2s ~dsts:t1s ();
  Array.iteri (fun v src -> m5 ~dagger:false eo.p ~n4:eo.half ~src ~dst:dsts.(v)) srcs;
  Array.iteri (fun v dst -> sub_into dst t1s.(v) 0 (eo_field_length eo)) dsts

(* S^dag = M5d^dag - Hop_eo^dag M5d^{-dag} Hop_oe^dag, each adjoint
   taken explicitly; leaves dst = M5d^dag src and returns the chain
   term the finish subtracts. *)
let schur_dagger_chain eo ~srcs ~dsts =
  let t1s = create_like eo srcs and t2s = create_like eo srcs in
  (* (Hop_oe)^dag : odd -> even *)
  hop_eo_dagger_gen eo ~from_parity:1 ~srcs ~dsts:t1s;
  Array.iteri
    (fun v t1 -> apply_m5inv_gen ~chirality_swap:true eo.p ~n4:eo.half ~src:t1 ~dst:t2s.(v))
    t1s;
  (* (Hop_eo)^dag : even -> odd *)
  hop_eo_dagger_gen eo ~from_parity:0 ~srcs:t2s ~dsts:t1s;
  Array.iteri (fun v src -> m5 ~dagger:true eo.p ~n4:eo.half ~src ~dst:dsts.(v)) srcs;
  t1s

(* The dagger's finishing pass (dst <- M5d^dag src - t1), with the
   optional output tail fused into the same sweep: the subtraction and
   the tail's xpay/dot run per canonical [Field.reduce_block] while
   the block is hot, the partials summed by [Field.fold_partials] —
   the exact association of the standalone [Field.dot_re], so the
   fused chain is bit-identical to apply_schur_dagger-then-dot for any
   geometry (the subtraction itself is element-local and unchanged).
   This is the 5d analogue of [Wilson.hop_tail]: it is where the CG
   p·Ap reduction rides the Schur-normal stencil instead of costing
   its own full-vector sweep. *)
let schur_dagger_finish ?tail (dst : Linalg.Field.t) (t1 : Linalg.Field.t) len =
  match tail with
  | None ->
    sub_into dst t1 0 len;
    0.
  | Some tl ->
    Linalg.Field.fold_partials ~n:len (fun record ->
        record
          (fun lo hi ->
            sub_into dst t1 lo hi;
            Linalg.Fused.tail_term tl ~dst lo hi)
          0 len)

let schur_dagger_gen ?tail eo ~src ~dst =
  let t1s = schur_dagger_chain eo ~srcs:[| src |] ~dsts:[| dst |] in
  schur_dagger_finish ?tail dst t1s.(0) (eo_field_length eo)

(* One entry's launch: an operator over eo fields of [k] right-hand
   sides, at the geometry of its stencil launches — sites of the
   checkerboard kernel, each L5·24 floats of a listed field. *)
let eo_geometry ?(k = 1) eo =
  Option.map
    (fun g -> { g with Linalg.Field.unit = eo.p.l5 * fps })
    (Wilson.geometry ~cols:(eo.p.l5 * k) ~n:eo.half ())

let entry ?k eo name operands body =
  Linalg.Field.launch ~sweeps:0 name (eo_geometry ?k eo) ~n:(eo_field_length eo) operands
    body

let eo_entry eo name ~src ~dst body =
  check_eo name eo [ src; dst ];
  entry eo name Util.Prof.[ read src; write dst ] body

let hop_eo eo ~to_parity ~src ~dst =
  eo_entry eo "Mobius.hop_eo" ~src ~dst (fun () ->
      hop_eo_gen eo ~to_parity ~srcs:[| src |] ~dsts:[| dst |] ())

let apply_schur eo ~src ~dst =
  eo_entry eo "Mobius.apply_schur" ~src ~dst (fun () ->
      schur_gen eo ~srcs:[| src |] ~dsts:[| dst |])

let apply_schur_dagger eo ~src ~dst =
  eo_entry eo "Mobius.apply_schur_dagger" ~src ~dst (fun () ->
      ignore (schur_dagger_gen eo ~src ~dst : float))

let schur_normal_gen ?tail eo ~src ~dst =
  let tmp = create_eo_field eo in
  schur_gen eo ~srcs:[| src |] ~dsts:[| tmp |];
  schur_dagger_gen ?tail eo ~src:tmp ~dst

let apply_schur_normal eo ~src ~dst =
  eo_entry eo "Mobius.apply_schur_normal" ~src ~dst (fun () ->
      ignore (schur_normal_gen eo ~src ~dst : float))

(* S^dag S with the tail riding the closing dagger sweep — what
   [Solver.Dwf_solve] hands [Solver.Cg]'s [apply_dot] so the fused CG
   iteration executes the 2-sweep BLAS-1 plan the model prices. *)
let apply_schur_normal_tail eo ~src ~dst ~tail =
  let name = "Mobius.apply_schur_normal_tail" in
  check_eo name eo [ src; dst ];
  Linalg.Fused.tail_check name ~n:(eo_field_length eo) tail;
  (Linalg.Field.launch_fold ~sweeps:0 name (eo_geometry eo) ~n:(eo_field_length eo)
     (Util.Prof.[ read src; write dst ] @ Linalg.Fused.tail_operands tail)
     (fun () -> [| schur_normal_gen ~tail eo ~src ~dst |])).(0)

(* ---- batched S^dag S: the same stages on k fields ---- *)

let apply_schur_normal_multi eo ~srcs ~dsts =
  let name = "Mobius.apply_schur_normal_multi" in
  check_eo_batch name eo ~srcs ~dsts;
  let k = Array.length srcs in
  entry ~k eo name
    (Util.Prof.batch k (fun i -> Util.Prof.[ read srcs.(i); write dsts.(i) ]))
    (fun () ->
      let tmps = create_like eo srcs in
      schur_gen eo ~srcs ~dsts:tmps;
      let t1s = schur_dagger_chain eo ~srcs:tmps ~dsts in
      Array.iteri
        (fun v dst -> ignore (schur_dagger_finish dst t1s.(v) (eo_field_length eo) : float))
        dsts)

(* ---- full <-> checkerboard field conversion ---- *)

let split_eo geom ~l5 (full : Linalg.Field.t) =
  let vol = Lattice.Geometry.volume geom in
  let half = Lattice.Geometry.half_volume geom in
  check_fields "Mobius.split_eo" ~len:(l5 * vol * fps) [ full ];
  let even = Linalg.Field.create (l5 * half * fps) in
  let odd = Linalg.Field.create (l5 * half * fps) in
  Linalg.Field.launch ~sweeps:0 "Mobius.split_eo" None ~n:(l5 * vol * fps)
    Util.Prof.[ read full; write even; write odd ]
    (fun () ->
      for s = 0 to l5 - 1 do
        for site = 0 to vol - 1 do
          let p = Lattice.Geometry.parity geom site in
          let i = Lattice.Geometry.eo_index geom site in
          let src_o = ((s * vol) + site) * fps in
          let dst_o = ((s * half) + i) * fps in
          let dst = if p = 0 then even else odd in
          for k = 0 to fps - 1 do
            Array1.unsafe_set dst (dst_o + k) (Array1.unsafe_get full (src_o + k))
          done
        done
      done);
  (even, odd)

let merge_eo geom ~l5 ~(even : Linalg.Field.t) ~(odd : Linalg.Field.t) =
  let vol = Lattice.Geometry.volume geom in
  let half = Lattice.Geometry.half_volume geom in
  check_fields "Mobius.merge_eo" ~len:(l5 * half * fps) [ even; odd ];
  let full = Linalg.Field.create (l5 * vol * fps) in
  Linalg.Field.launch ~sweeps:0 "Mobius.merge_eo" None ~n:(l5 * vol * fps)
    Util.Prof.[ read even; read odd; write full ]
    (fun () ->
      for s = 0 to l5 - 1 do
        for site = 0 to vol - 1 do
          let p = Lattice.Geometry.parity geom site in
          let i = Lattice.Geometry.eo_index geom site in
          let dst_o = ((s * vol) + site) * fps in
          let src_o = ((s * half) + i) * fps in
          let src = if p = 0 then even else odd in
          for k = 0 to fps - 1 do
            Array1.unsafe_set full (dst_o + k) (Array1.unsafe_get src (src_o + k))
          done
        done
      done);
  full

(* Schur right-hand side: y'_o = y_o - Hop_oe M5inv y_e. *)
let prepare_rhs eo ~(rhs_even : Linalg.Field.t) ~(rhs_odd : Linalg.Field.t) =
  check_fields "Mobius.prepare_rhs" ~len:(eo_field_length eo) [ rhs_even; rhs_odd ];
  let out = Array1.create float64 c_layout (eo_field_length eo) in
  entry eo "Mobius.prepare_rhs" Util.Prof.[ read rhs_even; read rhs_odd; write out ]
    (fun () ->
      let t1 = create_eo_field eo in
      let t2 = create_eo_field eo in
      apply_m5inv_gen ~chirality_swap:false eo.p ~n4:eo.half ~src:rhs_even ~dst:t1;
      hop_eo_gen eo ~to_parity:1 ~srcs:[| t1 |] ~dsts:[| t2 |] ();
      Array1.blit rhs_odd out;
      sub_into out t2 0 (eo_field_length eo));
  out

(* Even-parity reconstruction: x_e = M5inv (y_e - Hop_eo x_o). *)
let reconstruct_even eo ~(rhs_even : Linalg.Field.t) ~(x_odd : Linalg.Field.t) =
  check_fields "Mobius.reconstruct_even" ~len:(eo_field_length eo) [ rhs_even; x_odd ];
  let out = create_eo_field eo in
  entry eo "Mobius.reconstruct_even" Util.Prof.[ read rhs_even; read x_odd; write out ]
    (fun () ->
      let t1 = create_eo_field eo in
      hop_eo_gen eo ~to_parity:0 ~srcs:[| x_odd |] ~dsts:[| t1 |] ();
      let t2 = Array1.create float64 c_layout (eo_field_length eo) in
      Array1.blit rhs_even t2;
      sub_into t2 t1 0 (eo_field_length eo);
      apply_m5inv_gen ~chirality_swap:false eo.p ~n4:eo.half ~src:t2 ~dst:out);
  out
