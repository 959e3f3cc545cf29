(* Wilson hopping term — the radius-one stencil at the heart of the
   paper's solver. One kernel serves three callers through flat index
   tables: the full-volume operator (tables from Lattice.Geometry), the
   domain-decomposed operator (tables from Lattice.Domain, pointing
   into ghost slots), and the even-odd checkerboarded operator used by
   the red-black preconditioned Mobius solve.

   The kernel uses the half-spinor (spin projection) trick: (1 -+
   gamma_mu) has rank two, and in the DeGrand-Rossi basis spins {0,1}
   always project onto {2,3}, so two SU(3) mat-vecs per direction-side
   suffice; the other two spin components are reconstructed by a phase.

   dst(x) = sum_mu [ U_mu(x) (1-g_mu) src(x+mu)
                   + U_mu(x-mu)^dag (1+g_mu) src(x-mu) ]

   There is one site body (QUDA's single applyWilson core). Per 4D site
   it runs a set of columns — L5 slices of each of k source fields —
   and fetches each link once per (site, mu, side) for the whole set,
   so the 4D hop (L5 = k = 1), the batched hop (k > 1) and the Mobius
   5D chain (L5 > 1) all stream the gauge field once per site. What a
   caller does with the accumulated site (plain write, the Mobius -1/2
   scale, its s-combination) is the [store] it hands the body.

   Gauge storage is behind a link-fetch: the tables name links (site·4
   + mu), and the body materializes the link into an 18-float scratch
   before the mat-vec — a plain float64 copy for the full store, or a
   Su3_codec reconstruction for a packed store (Lattice.Recon), which
   is how the reconstruct-12/8 compression reaches every caller. *)

open Bigarray
module Codec = Linalg.Su3_codec

type store =
  | Full of Linalg.Field.t  (* shared Gauge.data, 18 reals per link *)
  | Packed of Lattice.Recon.t

type t = {
  n_sites : int;  (* sites the kernel writes *)
  src_sites : int;  (* sites the kernel reads: 1 + largest source index *)
  src_fwd : int array;  (* 4*i + mu -> source index of the forward hop *)
  src_bwd : int array;
  gauge_fwd : int array;  (* 4*i + mu -> link index of U_mu(x) *)
  gauge_bwd : int array;  (* 4*i + mu -> link index of U_mu(x - mu) *)
  store : store;
  recon : Codec.codec;
}

let floats_per_site = Gamma.floats_per_site
let fps = floats_per_site
let recon t = t.recon

let make_store recon gauge_data =
  match recon with
  | Codec.Full18 -> Full gauge_data
  | Codec.Recon12 | Codec.Recon8 ->
    Packed (Lattice.Recon.pack_field recon gauge_data)

let make ~recon ~src_fwd ~src_bwd ~gauge_fwd ~gauge_bwd gauge_data =
  let top = Array.fold_left max (-1) in
  {
    n_sites = Array.length src_fwd / 4;
    src_sites = 1 + max (top src_fwd) (top src_bwd);
    src_fwd;
    src_bwd;
    gauge_fwd;
    gauge_bwd;
    store = make_store recon gauge_data;
    recon;
  }

let of_tables ~recon ~n ~fwd ~bwd gauge_data =
  make ~recon ~src_fwd:fwd ~src_bwd:bwd
    ~gauge_fwd:(Array.init (n * 4) (fun e -> e))
    ~gauge_bwd:(Array.init (n * 4) (fun e -> (bwd.(e) * 4) + (e mod 4)))
    gauge_data

let of_geometry ?(recon = Codec.Full18) geom gauge_field =
  if not (Lattice.Gauge.geom gauge_field == geom) then
    invalid_arg "Wilson.of_geometry: gauge field on different geometry";
  of_tables ~recon ~n:(Lattice.Geometry.volume geom)
    ~fwd:(Lattice.Geometry.fwd_table geom)
    ~bwd:(Lattice.Geometry.bwd_table geom)
    (Lattice.Gauge.data gauge_field)

let of_domain_rank ?(recon = Codec.Full18) (rg : Lattice.Domain.rank_geometry)
    gauge_ext =
  of_tables ~recon ~n:rg.Lattice.Domain.local_volume ~fwd:rg.Lattice.Domain.fwd
    ~bwd:rg.Lattice.Domain.bwd gauge_ext

(* Checkerboarded hopping: writes sites of [parity], reads a source
   field indexed by the eo-index of the opposite parity. *)
let of_checkerboard ?(recon = Codec.Full18) geom gauge_field ~parity =
  if not (Lattice.Gauge.geom gauge_field == geom) then
    invalid_arg "Wilson.of_checkerboard: gauge field on different geometry";
  let half = Lattice.Geometry.half_volume geom in
  let src_fwd = Array.make (half * 4) 0 in
  let src_bwd = Array.make (half * 4) 0 in
  let gauge_fwd = Array.make (half * 4) 0 in
  let gauge_bwd = Array.make (half * 4) 0 in
  for i = 0 to half - 1 do
    let x = Lattice.Geometry.site_of_eo geom ~parity ~index:i in
    for mu = 0 to 3 do
      let xf = Lattice.Geometry.fwd geom x mu in
      let xb = Lattice.Geometry.bwd geom x mu in
      src_fwd.((i * 4) + mu) <- Lattice.Geometry.eo_index geom xf;
      src_bwd.((i * 4) + mu) <- Lattice.Geometry.eo_index geom xb;
      gauge_fwd.((i * 4) + mu) <- (x * 4) + mu;
      gauge_bwd.((i * 4) + mu) <- (xb * 4) + mu
    done
  done;
  make ~recon ~src_fwd ~src_bwd ~gauge_fwd ~gauge_bwd
    (Lattice.Gauge.data gauge_field)

(* The link-fetch a site body uses: fills the body's 18-float scratch
   from the store. Built per body so pooled ranges never share the
   packed-codec scratch. The full-store fetch is a float64 copy. *)
let make_fetch t =
  match t.store with
  | Full g ->
    fun link (uf : float array) ->
      let base = link * 18 in
      for j = 0 to 17 do
        Array.unsafe_set uf j (Array1.unsafe_get g (base + j))
      done
  | Packed p ->
    let packed = Array.make (Codec.reals (Lattice.Recon.codec p)) 0. in
    fun link uf -> Lattice.Recon.decode_sub p ~link ~packed uf

(* The backward link enters as U^dag: element (row, col) is conj
   U(col, row). Settled once per fetch, so the mat-vec has one form. *)
let adjoint_into (raw : float array) (u : float array) =
  for row = 0 to 2 do
    for col = 0 to 2 do
      let e = 2 * ((3 * row) + col) and f = 2 * ((3 * col) + row) in
      Array.unsafe_set u e (Array.unsafe_get raw f);
      Array.unsafe_set u (e + 1) (-.Array.unsafe_get raw (f + 1))
    done
  done

(* Per-direction projection data: for all four gammas, spins {0,1}
   partner with {2,3}; (1 - sign*gamma) component s in {0,1} is
   src_s - sign*phase_s*src_{partner_s}, and after the mat-vec the
   partner component is -sign*conj(phase_s) times the result. Stored
   as float offsets (6·spin) and [p0r; p0i; p1r; p1i] per mu. *)
let partner_a = Array.init 4 (fun mu -> 6 * Gamma.gammas.(mu).Gamma.perm.(0))
let partner_b = Array.init 4 (fun mu -> 6 * Gamma.gammas.(mu).Gamma.perm.(1))

let phases =
  Array.init 16 (fun i ->
      let p = Gamma.gammas.(i / 4).Gamma.phase.((i mod 4) / 2) in
      if i mod 2 = 0 then p.Linalg.Cplx.re else p.Linalg.Cplx.im)

(* gamma5 = diag(1,1,-1,-1) and the partners are always spins 2,3: the
   gamma5-conjugated stencil negates exactly the partner loads (folded
   into the projection phase below, an exact sign flip of each product)
   and the spin-2/3 outputs (the caller's store). *)
let () =
  assert (Gamma.gamma5_diag = [| 1.; 1.; -1.; -1. |]);
  Array.iter (fun o -> assert (o >= 12)) partner_a;
  Array.iter (fun o -> assert (o >= 12)) partner_b

let[@inline] ld (src : Linalg.Field.t) i = Array1.unsafe_get src i

let[@inline] add (acc : float array) i v =
  Array.unsafe_set acc i (Array.unsafe_get acc i +. v)

(* The site body. Columns are (v, s): slice s of srcs.(v), at float
   offset s·src_stride; column v·l5 + s accumulates into
   acc[(v·l5 + s)·24, +24), which [store acc x] then disposes of. The
   float expressions per column — the 0.-seeded mat-vec sums, the
   sign·(phase·spinor) projection and reconstruction — are the
   original single-column kernel's, term for term, so every column is
   bit-identical to hopping that slice alone. Each body owns its
   scratch (fresh per pooled range): writes go only through [store] at
   the written site and all reads are of the sources, so
   site-partitioned execution is race-free. *)
let make_body t ~l5 ~src_stride ~g5 ~(srcs : Linalg.Field.t array) ~store =
  let k = Array.length srcs in
  let width = l5 * k * fps in
  let acc = Array.make width 0. in
  let raw = Array.make 18 0. and u = Array.make 18 0. in
  let fetch = make_fetch t in
  fun x ->
    Array.fill acc 0 width 0.;
    let neg = if g5 then -1. else 1. in
    for mu = 0 to 3 do
      let e = (x * 4) + mu in
      let pa = Array.unsafe_get partner_a mu in
      let pb = Array.unsafe_get partner_b mu in
      let p0r = Array.unsafe_get phases (4 * mu) in
      let p0i = Array.unsafe_get phases ((4 * mu) + 1) in
      let p1r = Array.unsafe_get phases ((4 * mu) + 2) in
      let p1i = Array.unsafe_get phases ((4 * mu) + 3) in
      (* projection phases carry the gamma5 sign of the partner loads *)
      let q0r = neg *. p0r and q0i = neg *. p0i in
      let q1r = neg *. p1r and q1i = neg *. p1i in
      for side = 0 to 1 do
        (* side 0: forward, project (1-gamma), multiply by U_mu(x).
           side 1: backward, project (1+gamma), multiply by U^dag. *)
        let sign = if side = 0 then -1. else 1. in
        let nb =
          if side = 0 then begin
            fetch (Array.unsafe_get t.gauge_fwd e) u;
            Array.unsafe_get t.src_fwd e * fps
          end
          else begin
            fetch (Array.unsafe_get t.gauge_bwd e) raw;
            adjoint_into raw u;
            Array.unsafe_get t.src_bwd e * fps
          end
        in
        for v = 0 to k - 1 do
          let src = Array.unsafe_get srcs v in
          for s = 0 to l5 - 1 do
            let o = nb + (s * src_stride) in
            let ab = ((v * l5) + s) * fps in
            (* project: h0 from spins 0/pa, h1 from spins 1/pb *)
            let sar = ld src (o + pa) and sai = ld src (o + pa + 1) in
            let h00r = ld src o +. (sign *. ((q0r *. sar) -. (q0i *. sai))) in
            let h00i = ld src (o + 1) +. (sign *. ((q0r *. sai) +. (q0i *. sar))) in
            let sbr = ld src (o + pb) and sbi = ld src (o + pb + 1) in
            let h10r = ld src (o + 6) +. (sign *. ((q1r *. sbr) -. (q1i *. sbi))) in
            let h10i = ld src (o + 7) +. (sign *. ((q1r *. sbi) +. (q1i *. sbr))) in
            let sar = ld src (o + pa + 2) and sai = ld src (o + pa + 3) in
            let h01r = ld src (o + 2) +. (sign *. ((q0r *. sar) -. (q0i *. sai))) in
            let h01i = ld src (o + 3) +. (sign *. ((q0r *. sai) +. (q0i *. sar))) in
            let sbr = ld src (o + pb + 2) and sbi = ld src (o + pb + 3) in
            let h11r = ld src (o + 8) +. (sign *. ((q1r *. sbr) -. (q1i *. sbi))) in
            let h11i = ld src (o + 9) +. (sign *. ((q1r *. sbi) +. (q1i *. sbr))) in
            let sar = ld src (o + pa + 4) and sai = ld src (o + pa + 5) in
            let h02r = ld src (o + 4) +. (sign *. ((q0r *. sar) -. (q0i *. sai))) in
            let h02i = ld src (o + 5) +. (sign *. ((q0r *. sai) +. (q0i *. sar))) in
            let sbr = ld src (o + pb + 4) and sbi = ld src (o + pb + 5) in
            let h12r = ld src (o + 10) +. (sign *. ((q1r *. sbr) -. (q1i *. sbi))) in
            let h12i = ld src (o + 11) +. (sign *. ((q1r *. sbi) +. (q1i *. sbr))) in
            for c = 0 to 2 do
              (* row c of the mat-vec on both half-spinors *)
              let r = 6 * c in
              let u0r = Array.unsafe_get u r and u0i = Array.unsafe_get u (r + 1) in
              let u1r = Array.unsafe_get u (r + 2) and u1i = Array.unsafe_get u (r + 3) in
              let u2r = Array.unsafe_get u (r + 4) and u2i = Array.unsafe_get u (r + 5) in
              let g0r =
                ((0. +. ((u0r *. h00r) -. (u0i *. h00i)))
                +. ((u1r *. h01r) -. (u1i *. h01i)))
                +. ((u2r *. h02r) -. (u2i *. h02i))
              in
              let g0i =
                ((0. +. ((u0r *. h00i) +. (u0i *. h00r)))
                +. ((u1r *. h01i) +. (u1i *. h01r)))
                +. ((u2r *. h02i) +. (u2i *. h02r))
              in
              let g1r =
                ((0. +. ((u0r *. h10r) -. (u0i *. h10i)))
                +. ((u1r *. h11r) -. (u1i *. h11i)))
                +. ((u2r *. h12r) -. (u2i *. h12i))
              in
              let g1i =
                ((0. +. ((u0r *. h10i) +. (u0i *. h10r)))
                +. ((u1r *. h11i) +. (u1i *. h11r)))
                +. ((u2r *. h12i) +. (u2i *. h12r))
              in
              (* reconstruct: spin0 += g0, spin1 += g1, spin pa +=
                 sign*conj(p0)*g0, spin pb += sign*conj(p1)*g1 *)
              let a = ab + (2 * c) in
              add acc a g0r;
              add acc (a + 1) g0i;
              add acc (a + 6) g1r;
              add acc (a + 7) g1i;
              add acc (a + pa) (sign *. ((p0r *. g0r) +. (p0i *. g0i)));
              add acc (a + pa + 1) (sign *. ((p0r *. g0i) -. (p0i *. g0r)));
              add acc (a + pb) (sign *. ((p1r *. g1r) +. (p1i *. g1i)));
              add acc (a + pb + 1) (sign *. ((p1r *. g1i) -. (p1i *. g1r)))
            done
          done
        done
      done
    done;
    store acc x

(* ---- launches ---- *)

let check_dst name t (dst : Linalg.Field.t) =
  if Linalg.Field.length dst < t.n_sites * fps then
    invalid_arg (name ^ ": dst too short")

(* Every column of every source must lie inside its field: the last
   slice starts at (l5-1)·stride and the body reads src_sites sites. *)
let check_srcs name t ~l5 ~src_stride (srcs : Linalg.Field.t array) =
  Array.iter
    (fun src ->
      if Linalg.Field.length src < ((l5 - 1) * src_stride) + (t.src_sites * fps)
      then invalid_arg (name ^ ": src too short"))
    srcs

let check_no_alias name srcs dsts =
  Array.iter
    (fun dst ->
      Array.iter
        (fun src ->
          (* the probe writes (and restores) its first argument: the dst *)
          if Linalg.Fused.same_data dst src then
            invalid_arg (name ^ ": src and dst alias"))
        srcs)
    dsts

let check_batch name t (srcs : Linalg.Field.t array) (dsts : Linalg.Field.t array) =
  if Array.length srcs = 0 then invalid_arg (name ^ ": empty batch");
  if Array.length dsts <> Array.length srcs then
    invalid_arg (name ^ ": batch width mismatch");
  check_srcs name t ~l5:1 ~src_stride:0 srcs;
  Array.iter (check_dst name t) dsts;
  check_no_alias name srcs dsts;
  (* a repeated dst would take two columns' results, losing one *)
  Array.iteri
    (fun i d ->
      for j = 0 to i - 1 do
        if Linalg.Fused.same_data d dsts.(j) then
          invalid_arg (name ^ ": dsts share storage")
      done)
    dsts

(* The launch of every stencil entry: [Field.launch_pool]'s pick for
   the launch's floats (cols columns of n sites), in chunks of sites —
   by default the pool's default rule on the column-site count, so
   chunking follows the work, not the 4D volume alone. *)
let launch ?pool ?chunk ~cols ~n range =
  match Linalg.Field.launch_pool pool (cols * n * fps) with
  | None -> range 0 n
  | Some p ->
    let chunk =
      match chunk with
      | Some c -> c
      | None -> max 1 (Util.Pool.default_chunk p (n * cols) / cols)
    in
    Util.Pool.parallel_for p ~chunk ~n range

let body_range t ~l5 ~src_stride ~g5 ~srcs ~store lo hi =
  let body = make_body t ~l5 ~src_stride ~g5 ~srcs ~store in
  for x = lo to hi - 1 do
    body x
  done

let stencil t ~l5 ~src_stride ~g5 ~srcs ~store =
  check_srcs "Wilson.stencil" t ~l5 ~src_stride srcs;
  launch ~cols:(l5 * Array.length srcs) ~n:t.n_sites
    (body_range t ~l5 ~src_stride ~g5 ~srcs ~store)

(* dsts.(v)[x] <- acc column v: the plain hop's store. *)
let store_set (dsts : Linalg.Field.t array) (acc : float array) x =
  let db = x * fps in
  for v = 0 to Array.length dsts - 1 do
    let dst = Array.unsafe_get dsts v and a = v * fps in
    for j = 0 to fps - 1 do
      Array1.unsafe_set dst (db + j) (Array.unsafe_get acc (a + j))
    done
  done

let plain_body t ~srcs ~dsts =
  make_body t ~l5:1 ~src_stride:0 ~g5:false ~srcs ~store:(store_set dsts)

let hop_batch name ?pool ?chunk t ~srcs ~dsts =
  check_batch name t srcs dsts;
  launch ?pool ?chunk ~cols:(Array.length srcs) ~n:t.n_sites
    (body_range t ~l5:1 ~src_stride:0 ~g5:false ~srcs ~store:(store_set dsts))

let hop ?pool ?chunk t ~src ~dst =
  hop_batch "Wilson.hop" ?pool ?chunk t ~srcs:[| src |] ~dsts:[| dst |]

let hop_multi ?pool ?chunk t ~srcs ~dsts =
  hop_batch "Wilson.hop_multi" ?pool ?chunk t ~srcs ~dsts

let hop_sites t ?(sites : int array option) ~(src : Linalg.Field.t)
    ~(dst : Linalg.Field.t) () =
  check_batch "Wilson.hop_sites" t [| src |] [| dst |];
  let sites = match sites with Some s -> s | None -> Array.init t.n_sites Fun.id in
  Array.iter
    (fun x ->
      if x < 0 || x >= t.n_sites then invalid_arg "Wilson.hop_sites: site out of range")
    sites;
  Array.iter (plain_body t ~srcs:[| src |] ~dsts:[| dst |]) sites

(* ---- tail-fused hop: stencil + output tail in one pass ----
   The tail (optional xpay + dot, Linalg.Fused.tail) runs per tile
   right after the stencil writes it, while the tile is hot — the QUDA
   move of fusing trailing linear algebra into the dslash, which is
   what lets the CG p·Ap reduction stop being a separate full-vector
   sweep. Bit-identity with hop-then-xpay_dot/dot_re needs the
   canonical reduction association, so the tail is tiled at the
   smallest site count whose float span is a whole number of
   [Field.reduce_block]s (lcm(24, 2048)/24 = 256 sites = 3 blocks):
   chunk boundaries rounded to tiles can never split a reduction
   block, each block partial is accumulated serially in index order by
   exactly one worker, and [Field.fold_partials] sums the partials in
   block order on the caller for every geometry. *)

let tail_tile_sites =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  Linalg.Field.reduce_block / gcd fps Linalg.Field.reduce_block

let hop_tail_range t ~src ~dst ~tail ~record lo hi =
  let body = plain_body t ~srcs:[| src |] ~dsts:[| dst |] in
  let s = ref lo in
  while !s < hi do
    let s1 = min hi (!s + tail_tile_sites) in
    for x = !s to s1 - 1 do
      body x
    done;
    record (Linalg.Fused.tail_term tail ~dst) (!s * fps) (s1 * fps);
    s := s1
  done

let round_to_tiles c = (max 1 c + tail_tile_sites - 1) / tail_tile_sites * tail_tile_sites

let hop_tail ?pool ?chunk t ~src ~dst ~tail =
  check_batch "Wilson.hop_tail" t [| src |] [| dst |];
  let n = t.n_sites * fps in
  Linalg.Fused.tail_check "Wilson.hop_tail" ~n ~dst tail;
  let s =
    Linalg.Field.fold_partials ~n (fun record ->
        let range = hop_tail_range t ~src ~dst ~tail ~record in
        match Linalg.Field.launch_pool pool n with
        | None -> range 0 t.n_sites
        | Some p ->
          let c = Option.value chunk ~default:(Util.Pool.default_chunk p t.n_sites) in
          Util.Pool.parallel_for p ~chunk:(round_to_tiles c) ~n:t.n_sites range)
  in
  Linalg.Field.Sanitize.check_vec "Wilson.hop_tail" dst;
  (match tail.Linalg.Fused.t_xpay with
  | Some (out, _) -> Linalg.Field.Sanitize.check_vec "Wilson.hop_tail" out
  | None -> ());
  Linalg.Field.Sanitize.check_scalar "Wilson.hop_tail" s

(* ---- full Wilson operator ----
   M psi = (4 + mass) psi - (1/2) H psi, and M^dag = g5 M g5 by
   gamma5-hermiticity: the dagger runs the gamma5-conjugated body (the
   partner-spin loads negated) and flips spins 2,3 of the diagonal term
   and of the result in the store — the values the g5·apply·g5
   sandwich produced through two gamma5 passes. *)
let store_apply ~dagger ~mass ~(srcs : Linalg.Field.t array) ~(dsts : Linalg.Field.t array)
    (acc : float array) x =
  let d = 4. +. mass in
  let db = x * fps in
  for v = 0 to Array.length dsts - 1 do
    let src = Array.unsafe_get srcs v and dst = Array.unsafe_get dsts v in
    let a = v * fps in
    for j = 0 to fps - 1 do
      let s = Array1.unsafe_get src (db + j) and h = Array.unsafe_get acc (a + j) in
      Array1.unsafe_set dst (db + j)
        (if dagger && j >= 12 then -.((d *. -.s) -. (0.5 *. h))
         else (d *. s) -. (0.5 *. h))
    done
  done

let apply_gen name ~dagger t ~mass ~srcs ~dsts =
  check_batch name t srcs dsts;
  launch ~cols:(Array.length srcs) ~n:t.n_sites
    (body_range t ~l5:1 ~src_stride:0 ~g5:dagger ~srcs
       ~store:(store_apply ~dagger ~mass ~srcs ~dsts))

let apply t ~mass ~src ~dst =
  apply_gen "Wilson.apply" ~dagger:false t ~mass ~srcs:[| src |] ~dsts:[| dst |]

let apply_dagger t ~mass ~src ~dst =
  apply_gen "Wilson.apply_dagger" ~dagger:true t ~mass ~srcs:[| src |]
    ~dsts:[| dst |]

let apply_multi t ~mass ~srcs ~dsts =
  apply_gen "Wilson.apply_multi" ~dagger:false t ~mass ~srcs ~dsts

let apply_dagger_multi t ~mass ~srcs ~dsts =
  apply_gen "Wilson.apply_dagger_multi" ~dagger:true t ~mass ~srcs ~dsts
