(* Tests for Dirac: gamma algebra, Wilson stencil (free-field
   dispersion, gamma5-hermiticity, checkerboard consistency), Mobius
   domain-wall operator (adjoint identity, M5 inverse, chiral limits). *)

module Geometry = Lattice.Geometry
module Gauge = Lattice.Gauge
module Field = Linalg.Field
module Cplx = Linalg.Cplx
module Gamma = Dirac.Gamma
module Wilson = Dirac.Wilson
module Mobius = Dirac.Mobius

let rng () = Util.Rng.create 31_337

let check_close ?(eps = 1e-10) msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (|%g - %g| <= %g)" msg a b eps) true
    (abs_float (a -. b) <= eps)

(* ---- Gamma algebra ---- *)

let test_gamma_anticommutators () =
  Alcotest.(check bool) "{g_mu, g_nu} = 2 delta" true (Gamma.anticommutator_check ())

let test_gamma5_diagonal () =
  Alcotest.(check (array (float 0.))) "g5 = diag(1,1,-1,-1)"
    [| 1.; 1.; -1.; -1. |] Gamma.gamma5_diag

let test_gamma5_squares_to_one () =
  let m = Gamma.mat_mul Gamma.gamma5_matrix Gamma.gamma5_matrix in
  for s = 0 to 3 do
    for s' = 0 to 3 do
      let want = if s = s' then Cplx.one else Cplx.zero in
      Alcotest.(check bool) "g5^2 = 1" true (Cplx.equal m.(s).(s') want)
    done
  done

let test_gamma_hermitian () =
  (* Euclidean gammas are hermitian: g = g^dag. *)
  for mu = 0 to 3 do
    let m = Gamma.matrix mu in
    for s = 0 to 3 do
      for s' = 0 to 3 do
        Alcotest.(check bool) "hermitian" true
          (Cplx.equal m.(s).(s') (Cplx.conj m.(s').(s)))
      done
    done
  done

let test_gamma5_anticommutes () =
  for mu = 0 to 3 do
    let gm = Gamma.matrix mu in
    let a = Gamma.mat_mul Gamma.gamma5_matrix gm in
    let b = Gamma.mat_mul gm Gamma.gamma5_matrix in
    for s = 0 to 3 do
      for s' = 0 to 3 do
        Alcotest.(check bool) "g5 g_mu = -g_mu g5" true
          (Cplx.equal a.(s).(s') (Cplx.neg b.(s).(s')))
      done
    done
  done

let test_apply_site_matches_matrix () =
  let r = rng () in
  for mu = 0 to 3 do
    let src = Field.create 24 and dst = Field.create 24 in
    Field.gaussian r src;
    Gamma.apply_site Gamma.gammas.(mu) src 0 dst 0;
    (* explicit matrix multiply on (spin, color) components *)
    let m = Gamma.matrix mu in
    for s = 0 to 3 do
      for c = 0 to 2 do
        let acc = ref Cplx.zero in
        for s' = 0 to 3 do
          let o = ((s' * 3) + c) * 2 in
          acc :=
            Cplx.add !acc
              (Cplx.mul m.(s).(s')
                 (Cplx.make (Bigarray.Array1.get src o) (Bigarray.Array1.get src (o + 1))))
        done;
        let o = ((s * 3) + c) * 2 in
        check_close "re" (Cplx.re !acc) (Bigarray.Array1.get dst o);
        check_close "im" (Cplx.im !acc) (Bigarray.Array1.get dst (o + 1))
      done
    done
  done

let test_apply_gamma5_involution () =
  let r = rng () in
  let src = Field.create (24 * 8) in
  Field.gaussian r src;
  let once = Field.create (Field.length src) in
  Gamma.apply_gamma5 src once;
  Gamma.apply_gamma5 once once;
  (* in place *)
  Alcotest.(check (float 0.)) "g5 g5 = id" 0. (Field.max_abs_diff src once)

(* ---- Wilson ---- *)

let unit_setup dims =
  let geom = Geometry.create dims in
  let gauge = Gauge.unit geom in
  (geom, Wilson.of_geometry geom gauge)

let test_wilson_free_dispersion () =
  (* On the unit gauge field a plane wave is an eigenvector:
     M e^{ipx} chi = e^{ipx} [(4+m) - sum cos p + i sum g_mu sin p] chi *)
  let dims = [| 4; 4; 2; 4 |] in
  let geom, w = unit_setup dims in
  let r = rng () in
  let mass = 0.1 in
  let chi = Array.init 24 (fun _ -> Util.Rng.gaussian r) in
  let k = [| 1; 3; 0; 2 |] in
  let p = Array.init 4 (fun mu -> 2. *. Float.pi *. float_of_int k.(mu) /. float_of_int dims.(mu)) in
  let vol = Geometry.volume geom in
  let src = Field.create (vol * 24) in
  Geometry.iter_sites geom (fun site ->
      let c = Geometry.coords geom site in
      let phase = ref 0. in
      for mu = 0 to 3 do
        phase := !phase +. (p.(mu) *. float_of_int c.(mu))
      done;
      let e = Cplx.exp_i !phase in
      for comp = 0 to 11 do
        let re = chi.(comp * 2) and im = chi.((comp * 2) + 1) in
        Bigarray.Array1.set src ((site * 24) + (comp * 2))
          ((e.Cplx.re *. re) -. (e.Cplx.im *. im));
        Bigarray.Array1.set src ((site * 24) + (comp * 2) + 1)
          ((e.Cplx.re *. im) +. (e.Cplx.im *. re))
      done);
  let dst = Field.create (vol * 24) in
  Wilson.apply w ~mass ~src ~dst;
  (* expected: same plane wave with spinor chi' = M(p) chi *)
  let diag = 4. +. mass -. Array.fold_left (fun a pm -> a +. cos pm) 0. p in
  let chi' = Array.make 24 0. in
  for comp = 0 to 11 do
    chi'.(comp * 2) <- diag *. chi.(comp * 2);
    chi'.((comp * 2) + 1) <- diag *. chi.((comp * 2) + 1)
  done;
  for mu = 0 to 3 do
    let m = Gamma.matrix mu in
    let s_mu = sin p.(mu) in
    for s = 0 to 3 do
      for s' = 0 to 3 do
        let g = m.(s).(s') in
        if Cplx.abs g > 0. then
          for c = 0 to 2 do
            let o = ((s * 3) + c) * 2 and o' = ((s' * 3) + c) * 2 in
            (* add i * s_mu * g * chi_{s'} *)
            let coeff = Cplx.mul (Cplx.make 0. s_mu) g in
            chi'.(o) <-
              chi'.(o)
              +. ((coeff.Cplx.re *. chi.(o')) -. (coeff.Cplx.im *. chi.(o' + 1)));
            chi'.(o + 1) <-
              chi'.(o + 1)
              +. ((coeff.Cplx.re *. chi.(o' + 1)) +. (coeff.Cplx.im *. chi.(o')))
          done
      done
    done
  done;
  (* compare site 0 (phase = 1) and a generic site *)
  List.iter
    (fun site ->
      let c = Geometry.coords geom site in
      let phase = ref 0. in
      for mu = 0 to 3 do
        phase := !phase +. (p.(mu) *. float_of_int c.(mu))
      done;
      let e = Cplx.exp_i !phase in
      for comp = 0 to 11 do
        let want_re = (e.Cplx.re *. chi'.(comp * 2)) -. (e.Cplx.im *. chi'.((comp * 2) + 1)) in
        let want_im = (e.Cplx.re *. chi'.((comp * 2) + 1)) +. (e.Cplx.im *. chi'.(comp * 2)) in
        check_close ~eps:1e-9 "plane wave re" want_re
          (Bigarray.Array1.get dst ((site * 24) + (comp * 2)));
        check_close ~eps:1e-9 "plane wave im" want_im
          (Bigarray.Array1.get dst ((site * 24) + (comp * 2) + 1))
      done)
    [ 0; Geometry.site geom [| 1; 2; 1; 3 |] ]

let random_gauge_setup dims =
  let geom = Geometry.create dims in
  let gauge = Gauge.random geom (rng ()) in
  (geom, gauge)

let test_wilson_gamma5_hermiticity () =
  let geom, gauge = random_gauge_setup [| 4; 2; 2; 4 |] in
  let w = Wilson.of_geometry geom gauge in
  let r = rng () in
  let n = Geometry.volume geom * 24 in
  let u = Field.create n and v = Field.create n in
  Field.gaussian r u;
  Field.gaussian r v;
  let dv = Field.create n and du = Field.create n in
  Wilson.apply w ~mass:0.2 ~src:v ~dst:dv;
  Wilson.apply_dagger w ~mass:0.2 ~src:u ~dst:du;
  let lhs = Field.cdot u dv and rhs = Field.cdot du v in
  check_close ~eps:1e-8 "re <u, Dv> = <D^dag u, v>" (Cplx.re lhs) (Cplx.re rhs);
  check_close ~eps:1e-8 "im <u, Dv> = <D^dag u, v>" (Cplx.im lhs) (Cplx.im rhs)

let test_wilson_checkerboard_consistency () =
  (* The full hopping restricted to one parity equals the
     checkerboarded kernel applied to the opposite-parity field. *)
  let geom, gauge = random_gauge_setup [| 4; 4; 2; 2 |] in
  let w_full = Wilson.of_geometry geom gauge in
  let w_e = Wilson.of_checkerboard geom gauge ~parity:0 in
  let w_o = Wilson.of_checkerboard geom gauge ~parity:1 in
  let r = rng () in
  let vol = Geometry.volume geom and half = Geometry.half_volume geom in
  let src = Field.create (vol * 24) in
  Field.gaussian r src;
  let dst_full = Field.create (vol * 24) in
  Wilson.hop w_full ~src ~dst:dst_full;
  (* split source by parity *)
  let src_e = Field.create (half * 24) and src_o = Field.create (half * 24) in
  Geometry.iter_sites geom (fun site ->
      let p = Geometry.parity geom site in
      let i = Geometry.eo_index geom site in
      let dst = if p = 0 then src_e else src_o in
      for k = 0 to 23 do
        Bigarray.Array1.set dst ((i * 24) + k) (Bigarray.Array1.get src ((site * 24) + k))
      done);
  let dst_e = Field.create (half * 24) and dst_o = Field.create (half * 24) in
  Wilson.hop w_e ~src:src_o ~dst:dst_e;
  Wilson.hop w_o ~src:src_e ~dst:dst_o;
  Geometry.iter_sites geom (fun site ->
      let p = Geometry.parity geom site in
      let i = Geometry.eo_index geom site in
      let cb = if p = 0 then dst_e else dst_o in
      for k = 0 to 23 do
        check_close ~eps:1e-12 "cb = full"
          (Bigarray.Array1.get dst_full ((site * 24) + k))
          (Bigarray.Array1.get cb ((i * 24) + k))
      done)

let test_wilson_hop_sites_subset () =
  let geom, gauge = random_gauge_setup [| 2; 2; 2; 4 |] in
  let w = Wilson.of_geometry geom gauge in
  let r = rng () in
  let n = Geometry.volume geom * 24 in
  let src = Field.create n in
  Field.gaussian r src;
  let full = Field.create n and partial = Field.create n in
  Wilson.hop w ~src ~dst:full;
  let sites = Array.init (Geometry.volume geom / 2) (fun i -> 2 * i) in
  Wilson.hop_sites w ~sites ~src ~dst:partial ();
  Array.iter
    (fun s ->
      for k = 0 to 23 do
        check_close ~eps:0. "subset matches"
          (Bigarray.Array1.get full ((s * 24) + k))
          (Bigarray.Array1.get partial ((s * 24) + k))
      done)
    sites

(* ---- Mobius ---- *)

let mobius_setup ?(dims = [| 2; 2; 2; 4 |]) ?(l5 = 4) ?(mass = 0.1) ?(alpha = 1.5) () =
  let geom = Geometry.create dims in
  let gauge = Gauge.warm geom (rng ()) ~eps:0.4 in
  let gauge = Gauge.with_antiperiodic_time gauge in
  let p = Mobius.mobius ~l5 ~m5:1.8 ~alpha ~mass in
  (geom, gauge, p)

let test_mobius_shamir_limit () =
  let p = Mobius.mobius ~l5:8 ~m5:1.8 ~alpha:1. ~mass:0.1 in
  let s = Mobius.shamir ~l5:8 ~m5:1.8 ~mass:0.1 in
  check_close "b5" s.Mobius.b5 p.Mobius.b5;
  check_close "c5" s.Mobius.c5 p.Mobius.c5

let test_m5inv_inverts_m5 () =
  let _, _, p = mobius_setup () in
  let n4 = 16 in
  let r = rng () in
  let src = Field.create (p.Mobius.l5 * n4 * 24) in
  Field.gaussian r src;
  let mid = Field.create (Field.length src) in
  let back = Field.create (Field.length src) in
  Mobius.apply_m5 p ~n4 ~src ~dst:mid;
  Mobius.apply_m5inv p ~n4 ~src:mid ~dst:back;
  Alcotest.(check bool) "m5inv . m5 = id" true (Field.max_abs_diff src back < 1e-10);
  (* and the other order *)
  Mobius.apply_m5inv p ~n4 ~src ~dst:mid;
  Mobius.apply_m5 p ~n4 ~src:mid ~dst:back;
  Alcotest.(check bool) "m5 . m5inv = id" true (Field.max_abs_diff src back < 1e-10)

let test_g5r5_involution () =
  let r = rng () in
  let l5 = 6 and n4 = 8 in
  let src = Field.create (l5 * n4 * 24) in
  Field.gaussian r src;
  let once = Field.create (Field.length src) in
  let twice = Field.create (Field.length src) in
  Mobius.apply_g5r5 ~l5 ~n4 ~src ~dst:once;
  Mobius.apply_g5r5 ~l5 ~n4 ~src:once ~dst:twice;
  Alcotest.(check (float 0.)) "(g5 r5)^2 = id" 0. (Field.max_abs_diff src twice)

let test_mobius_adjoint_identity () =
  let geom, gauge, p = mobius_setup () in
  let d = Mobius.of_geometry p geom gauge in
  let r = rng () in
  let n = Mobius.field_length d in
  let u = Field.create n and v = Field.create n in
  Field.gaussian r u;
  Field.gaussian r v;
  let dv = Field.create n and du = Field.create n in
  Mobius.apply d ~src:v ~dst:dv;
  Mobius.apply_dagger d ~src:u ~dst:du;
  let lhs = Field.cdot u dv and rhs = Field.cdot du v in
  check_close ~eps:1e-8 "re adjoint" (Cplx.re lhs) (Cplx.re rhs);
  check_close ~eps:1e-8 "im adjoint" (Cplx.im lhs) (Cplx.im rhs)

let test_mobius_schur_adjoint_identity () =
  let geom, gauge, p = mobius_setup () in
  let eo = Mobius.of_geometry_eo p geom gauge in
  let r = rng () in
  let n = Mobius.eo_field_length eo in
  let u = Field.create n and v = Field.create n in
  Field.gaussian r u;
  Field.gaussian r v;
  let sv = Field.create n and su = Field.create n in
  Mobius.apply_schur eo ~src:v ~dst:sv;
  Mobius.apply_schur_dagger eo ~src:u ~dst:su;
  let lhs = Field.cdot u sv and rhs = Field.cdot su v in
  check_close ~eps:1e-8 "re schur adjoint" (Cplx.re lhs) (Cplx.re rhs);
  check_close ~eps:1e-8 "im schur adjoint" (Cplx.im lhs) (Cplx.im rhs)

let test_mobius_normal_positive () =
  let geom, gauge, p = mobius_setup () in
  let d = Mobius.of_geometry p geom gauge in
  let r = rng () in
  let n = Mobius.field_length d in
  for _ = 1 to 3 do
    let v = Field.create n in
    Field.gaussian r v;
    let ndv = Field.create n in
    Mobius.apply_normal d ~src:v ~dst:ndv;
    let q = Field.dot_re v ndv in
    Alcotest.(check bool) "D^dag D positive" true (q > 0.)
  done

let test_mobius_eo_full_consistency () =
  (* Schur complement applied directly must agree with eliminating the
     even sites from the full operator: for x supported on odd sites
     with x_e = -M5inv Hop_eo x_o, (D x)_o = S x_o. *)
  let geom, gauge, p = mobius_setup () in
  let d = Mobius.of_geometry p geom gauge in
  let eo = Mobius.of_geometry_eo p geom gauge in
  let r = rng () in
  let x_odd = Mobius.create_eo_field eo in
  Field.gaussian r x_odd;
  (* x_e = -M5inv Hop_eo x_o *)
  let t = Mobius.create_eo_field eo in
  Mobius.hop_eo eo ~to_parity:0 ~src:x_odd ~dst:t;
  let x_even = Mobius.create_eo_field eo in
  Mobius.apply_m5inv p ~n4:(Geometry.half_volume geom) ~src:t ~dst:x_even;
  Field.scale (-1.) x_even;
  let full = Mobius.merge_eo geom ~l5:p.Mobius.l5 ~even:x_even ~odd:x_odd in
  let dx = Field.create (Mobius.field_length d) in
  Mobius.apply d ~src:full ~dst:dx;
  let dx_even, dx_odd = Mobius.split_eo geom ~l5:p.Mobius.l5 dx in
  (* odd part = Schur, even part = 0 *)
  let sx = Mobius.create_eo_field eo in
  Mobius.apply_schur eo ~src:x_odd ~dst:sx;
  Alcotest.(check bool) "(Dx)_odd = S x_odd" true (Field.max_abs_diff dx_odd sx < 1e-9);
  Alcotest.(check bool) "(Dx)_even = 0" true (sqrt (Field.norm2 dx_even) < 1e-9)

let test_split_merge_roundtrip () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let l5 = 3 in
  let r = rng () in
  let full = Field.create (l5 * Geometry.volume geom * 24) in
  Field.gaussian r full;
  let even, odd = Mobius.split_eo geom ~l5 full in
  let back = Mobius.merge_eo geom ~l5 ~even ~odd in
  Alcotest.(check (float 0.)) "roundtrip" 0. (Field.max_abs_diff full back)

(* qcheck: adjoint identity for random Mobius parameter sets *)
let prop_mobius_adjoint_random_params =
  let gen =
    QCheck.Gen.(
      quad (int_range 2 6) (float_range 0.5 1.9) (float_range 1. 2.5)
        (float_range 0.01 0.5))
  in
  QCheck.Test.make ~count:5
    ~name:"mobius adjoint identity for random (l5, m5, alpha, mass)"
    (QCheck.make gen)
    (fun (l5, m5, alpha, mass) ->
      let geom = Geometry.create [| 2; 2; 2; 2 |] in
      let gauge = Gauge.warm geom (Util.Rng.create (l5 * 13)) ~eps:0.5 in
      let p = Mobius.mobius ~l5 ~m5 ~alpha ~mass in
      let d = Mobius.of_geometry p geom gauge in
      let r = Util.Rng.create 5 in
      let n = Mobius.field_length d in
      let u = Field.create n and v = Field.create n in
      Field.gaussian r u;
      Field.gaussian r v;
      let dv = Field.create n and du = Field.create n in
      Mobius.apply d ~src:v ~dst:dv;
      Mobius.apply_dagger d ~src:u ~dst:du;
      let lhs = Field.cdot u dv and rhs = Field.cdot du v in
      Cplx.abs (Cplx.sub lhs rhs) < 1e-6 *. (1. +. Cplx.abs lhs))

(* ---- gauge covariance: an independent ground truth ----
   Under a random SU(3) rotation Omega(x), U_mu(x) -> Omega(x) U_mu(x)
   Omega(x + mu)^dag and psi(x) -> Omega(x) psi(x) (every spin, every
   s-slice), the stencil must commute with the rotation:
   H[U^Omega](Omega psi) = Omega H[U] psi. *)

let gauge_rotation geom =
  let r = Util.Rng.create 4242 in
  let omegas = Array.init (Geometry.volume geom) (fun _ -> Linalg.Su3.random r) in
  let links u =
    let out = Gauge.copy u in
    Geometry.iter_sites geom (fun site ->
        for mu = 0 to 3 do
          let xf = Geometry.fwd geom site mu in
          Gauge.set out site mu
            (Linalg.Su3.mul omegas.(site)
               (Linalg.Su3.mul (Gauge.get u site mu) (Linalg.Su3.adj omegas.(xf))))
        done);
    out
  in
  (* 5D fields are slice-major, so 4D site = field site mod volume *)
  let spinor (v : Field.t) =
    let out = Field.create (Field.length v) in
    for x = 0 to (Field.length v / 24) - 1 do
      let om = omegas.(x mod Geometry.volume geom) in
      for spin = 0 to 3 do
        let o = (x * 24) + (spin * 6) in
        Array.iteri
          (fun i c -> out.{o + i} <- c)
          (Linalg.Su3.mul_vec om (Array.init 6 (fun i -> v.{o + i})))
      done
    done;
    out
  in
  (links, spinor)

let covariance_setup () =
  let geom = Geometry.create [| 4; 4; 2; 4 |] in
  let gauge = Gauge.with_antiperiodic_time (Gauge.warm geom (rng ()) ~eps:0.4) in
  let links, spinor = gauge_rotation geom in
  (geom, gauge, links gauge, spinor)

let test_wilson_gauge_covariance () =
  let geom, gauge, gauge', spinor = covariance_setup () in
  let w = Wilson.of_geometry geom gauge and w' = Wilson.of_geometry geom gauge' in
  let psi = Field.create (Geometry.volume geom * 24) in
  Field.gaussian (rng ()) psi;
  let h = Field.create (Field.length psi) and h' = Field.create (Field.length psi) in
  Wilson.hop w ~src:psi ~dst:h;
  Wilson.hop w' ~src:(spinor psi) ~dst:h';
  let d = Field.max_abs_diff h' (spinor h) in
  Alcotest.(check bool) (Printf.sprintf "H[U'] (O psi) = O H[U] psi (max diff %g)" d)
    true (d < 1e-12)

let test_mobius_gauge_covariance () =
  let geom, gauge, gauge', spinor = covariance_setup () in
  let p = Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass:0.1 in
  let d = Mobius.of_geometry p geom gauge and d' = Mobius.of_geometry p geom gauge' in
  let psi = Mobius.create_field d in
  Field.gaussian (rng ()) psi;
  let y = Mobius.create_field d and y' = Mobius.create_field d in
  Mobius.apply d ~src:psi ~dst:y;
  Mobius.apply d' ~src:(spinor psi) ~dst:y';
  let diff = Field.max_abs_diff y' (spinor y) in
  Alcotest.(check bool) (Printf.sprintf "D[U'] (O psi) = O D[U] psi (max diff %g)" diff)
    true (diff < 1e-12)

(* D^dag = (g5 R5) D (g5 R5) holds for Shamir (c5 = 0) only: with
   c5 <> 0 the projectors do not commute with the stencil's spin
   structure, which is why apply_dagger is built explicitly. *)
let test_shamir_g5r5_hermiticity () =
  let geom, gauge, _ = mobius_setup ~dims:[| 4; 4; 2; 4 |] () in
  let p = Mobius.shamir ~l5:4 ~m5:1.8 ~mass:0.1 in
  let d = Mobius.of_geometry p geom gauge in
  let l5 = p.Mobius.l5 and n4 = Geometry.volume geom in
  let v = Mobius.create_field d in
  Field.gaussian (rng ()) v;
  let a = Mobius.create_field d and b = Mobius.create_field d in
  let sandwich = Mobius.create_field d and dagger = Mobius.create_field d in
  Mobius.apply_g5r5 ~l5 ~n4 ~src:v ~dst:a;
  Mobius.apply d ~src:a ~dst:b;
  Mobius.apply_g5r5 ~l5 ~n4 ~src:b ~dst:sandwich;
  Mobius.apply_dagger d ~src:v ~dst:dagger;
  let diff = Field.max_abs_diff sandwich dagger in
  Alcotest.(check bool) (Printf.sprintf "g5R5 D g5R5 = D^dag (max diff %g)" diff)
    true (diff < 1e-12)

(* ---- entry checks: lengths, site indices, aliasing ---- *)

let raises name f =
  match f () with
  | () -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument _ -> ()

let cb_setup () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let gauge = Gauge.random geom (rng ()) in
  (geom, gauge, Wilson.of_checkerboard geom gauge ~parity:0)

let test_wilson_rejects_short_src () =
  let geom, _, w = cb_setup () in
  let n = Geometry.half_volume geom * Wilson.floats_per_site in
  let short = Field.create (n - 1) and dst = Field.create n in
  raises "hop" (fun () -> Wilson.hop w ~src:short ~dst);
  raises "pooled hop" (fun () -> Wilson.hop ~pool:(Util.Pool.shared ~domains:1) w ~src:short ~dst);
  raises "hop_sites" (fun () -> Wilson.hop_sites w ~src:short ~dst ());
  raises "hop_multi" (fun () -> Wilson.hop_multi w ~srcs:[| short |] ~dsts:[| dst |]);
  raises "hop_tail" (fun () ->
      ignore (Wilson.hop_tail w ~src:short ~dst ~tail:(Linalg.Fused.tail ~dot:dst ()) : float));
  raises "apply" (fun () -> Wilson.apply w ~mass:0.1 ~src:short ~dst)

let test_wilson_rejects_bad_sites () =
  let geom, _, w = cb_setup () in
  let half = Geometry.half_volume geom in
  let src = Field.create (half * Wilson.floats_per_site) in
  let dst = Field.create (half * Wilson.floats_per_site) in
  raises "negative site" (fun () -> Wilson.hop_sites w ~sites:[| 0; -1 |] ~src ~dst ());
  raises "site = n_sites" (fun () -> Wilson.hop_sites w ~sites:[| half |] ~src ~dst ())

let test_wilson_rejects_aliasing () =
  let geom, _, w = cb_setup () in
  let v = Field.create (Geometry.half_volume geom * Wilson.floats_per_site) in
  raises "hop src == dst" (fun () -> Wilson.hop w ~src:v ~dst:v);
  (* a second handle on the same storage is caught by the data probe *)
  raises "hop through a sub view" (fun () ->
      Wilson.hop w ~src:v ~dst:(Bigarray.Array1.sub v 0 (Field.length v)));
  raises "apply src == dst" (fun () -> Wilson.apply w ~mass:0.1 ~src:v ~dst:v);
  raises "apply_dagger src == dst" (fun () -> Wilson.apply_dagger w ~mass:0.1 ~src:v ~dst:v);
  raises "hop_multi" (fun () -> Wilson.hop_multi w ~srcs:[| v |] ~dsts:[| v |]);
  (* a repeated dst would store both columns into one field *)
  let u = Field.copy v and d = Field.create (Field.length v) in
  raises "hop_multi repeated dst" (fun () ->
      Wilson.hop_multi w ~srcs:[| v; u |] ~dsts:[| d; d |]);
  raises "hop_multi dst through a sub view" (fun () ->
      Wilson.hop_multi w ~srcs:[| v; u |]
        ~dsts:[| d; Bigarray.Array1.sub d 0 (Field.length d) |]);
  raises "apply_multi repeated dst" (fun () ->
      Wilson.apply_multi w ~mass:0.1 ~srcs:[| v; u |] ~dsts:[| d; d |])

let eo_setup () =
  let geom, gauge, _ = cb_setup () in
  let p = Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass:0.1 in
  (p, Geometry.half_volume geom, Mobius.of_geometry_eo p geom gauge)

let test_mobius_rejects_short_fields () =
  let p, half, eo = eo_setup () in
  let n = Mobius.eo_field_length eo in
  let ok = Field.create n and ok2 = Field.create n and short = Field.create (n - 24) in
  raises "apply_schur src" (fun () -> Mobius.apply_schur eo ~src:short ~dst:ok);
  raises "apply_schur dst" (fun () -> Mobius.apply_schur eo ~src:ok ~dst:short);
  raises "apply_schur_dagger" (fun () -> Mobius.apply_schur_dagger eo ~src:short ~dst:ok);
  raises "apply_schur_normal" (fun () -> Mobius.apply_schur_normal eo ~src:ok ~dst:short);
  raises "apply_schur_normal_tail" (fun () ->
      ignore
        (Mobius.apply_schur_normal_tail eo ~src:short ~dst:ok
           ~tail:(Linalg.Fused.tail ~dot:ok2 ())
          : float));
  raises "apply_schur_normal_multi" (fun () ->
      Mobius.apply_schur_normal_multi eo ~srcs:[| ok; short |] ~dsts:[| ok2; Field.create n |]);
  raises "hop_eo" (fun () -> Mobius.hop_eo eo ~to_parity:0 ~src:short ~dst:ok);
  raises "hop_eo_multi" (fun () -> Mobius.hop_eo_multi eo ~to_parity:1 ~srcs:[| ok |] ~dsts:[| short |]);
  raises "prepare_rhs" (fun () -> ignore (Mobius.prepare_rhs eo ~rhs_even:ok ~rhs_odd:short : Field.t));
  raises "reconstruct_even" (fun () ->
      ignore (Mobius.reconstruct_even eo ~rhs_even:short ~x_odd:ok : Field.t));
  raises "apply_m5" (fun () -> Mobius.apply_m5 p ~n4:half ~src:short ~dst:ok);
  raises "apply_m5_dagger" (fun () -> Mobius.apply_m5_dagger p ~n4:half ~src:ok ~dst:short);
  raises "apply_m5inv" (fun () -> Mobius.apply_m5inv p ~n4:half ~src:short ~dst:ok);
  raises "apply_m5inv_dagger" (fun () -> Mobius.apply_m5inv_dagger p ~n4:half ~src:ok ~dst:short)

let test_mobius_rejects_aliasing () =
  let _, _, eo = eo_setup () in
  let v = Mobius.create_eo_field eo in
  raises "apply_schur" (fun () -> Mobius.apply_schur eo ~src:v ~dst:v);
  raises "apply_schur_dagger" (fun () -> Mobius.apply_schur_dagger eo ~src:v ~dst:v);
  raises "apply_schur_normal" (fun () -> Mobius.apply_schur_normal eo ~src:v ~dst:v);
  raises "hop_eo" (fun () -> Mobius.hop_eo eo ~to_parity:1 ~src:v ~dst:v);
  raises "apply_schur_multi" (fun () ->
      Mobius.apply_schur_multi eo ~srcs:[| v; Mobius.create_eo_field eo |]
        ~dsts:[| Mobius.create_eo_field eo; v |])

let suite =
  [
    Alcotest.test_case "gamma anticommutators" `Quick test_gamma_anticommutators;
    Alcotest.test_case "gamma5 diagonal" `Quick test_gamma5_diagonal;
    Alcotest.test_case "gamma5 squares to 1" `Quick test_gamma5_squares_to_one;
    Alcotest.test_case "gammas hermitian" `Quick test_gamma_hermitian;
    Alcotest.test_case "gamma5 anticommutes" `Quick test_gamma5_anticommutes;
    Alcotest.test_case "apply_site = matrix" `Quick test_apply_site_matches_matrix;
    Alcotest.test_case "gamma5 involution" `Quick test_apply_gamma5_involution;
    Alcotest.test_case "wilson free dispersion" `Quick test_wilson_free_dispersion;
    Alcotest.test_case "wilson gamma5-hermiticity" `Quick test_wilson_gamma5_hermiticity;
    Alcotest.test_case "wilson checkerboard" `Quick test_wilson_checkerboard_consistency;
    Alcotest.test_case "wilson site subset" `Quick test_wilson_hop_sites_subset;
    Alcotest.test_case "mobius shamir limit" `Quick test_mobius_shamir_limit;
    Alcotest.test_case "m5inv inverts m5" `Quick test_m5inv_inverts_m5;
    Alcotest.test_case "g5r5 involution" `Quick test_g5r5_involution;
    Alcotest.test_case "mobius adjoint" `Quick test_mobius_adjoint_identity;
    Alcotest.test_case "schur adjoint" `Quick test_mobius_schur_adjoint_identity;
    Alcotest.test_case "normal op positive" `Quick test_mobius_normal_positive;
    Alcotest.test_case "eo/full consistency" `Quick test_mobius_eo_full_consistency;
    Alcotest.test_case "split/merge roundtrip" `Quick test_split_merge_roundtrip;
    QCheck_alcotest.to_alcotest prop_mobius_adjoint_random_params;
    Alcotest.test_case "wilson gauge covariance" `Quick test_wilson_gauge_covariance;
    Alcotest.test_case "mobius gauge covariance" `Quick test_mobius_gauge_covariance;
    Alcotest.test_case "shamir g5r5-hermiticity" `Quick test_shamir_g5r5_hermiticity;
    Alcotest.test_case "wilson rejects short src" `Quick test_wilson_rejects_short_src;
    Alcotest.test_case "wilson rejects out-of-range sites" `Quick
      test_wilson_rejects_bad_sites;
    Alcotest.test_case "wilson rejects aliasing" `Quick test_wilson_rejects_aliasing;
    Alcotest.test_case "mobius rejects short fields" `Quick
      test_mobius_rejects_short_fields;
    Alcotest.test_case "mobius rejects aliasing" `Quick test_mobius_rejects_aliasing;
  ]
