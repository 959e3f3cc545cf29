(* Tests for Lattice: geometry, gauge observables, gauge invariance,
   heatbath Monte Carlo, domain decomposition. *)

module Geometry = Lattice.Geometry
module Gauge = Lattice.Gauge
module Heatbath = Lattice.Heatbath
module Domain = Lattice.Domain
module Su3 = Linalg.Su3

let rng () = Util.Rng.create 7_777

let small_geom () = Geometry.create [| 4; 4; 4; 4 |]

let test_geometry_roundtrip () =
  let g = Geometry.create [| 2; 4; 6; 8 |] in
  Alcotest.(check int) "volume" (2 * 4 * 6 * 8) (Geometry.volume g);
  Geometry.iter_sites g (fun site ->
      let c = Geometry.coords g site in
      Alcotest.(check int) "site_of_coords inverse" site (Geometry.site g c))

let test_geometry_neighbors_inverse () =
  let g = small_geom () in
  Geometry.iter_sites g (fun site ->
      for mu = 0 to 3 do
        Alcotest.(check int) "bwd . fwd = id" site
          (Geometry.bwd g (Geometry.fwd g site mu) mu);
        Alcotest.(check int) "fwd . bwd = id" site
          (Geometry.fwd g (Geometry.bwd g site mu) mu)
      done)

let test_geometry_neighbor_parity_flips () =
  let g = small_geom () in
  Geometry.iter_sites g (fun site ->
      for mu = 0 to 3 do
        Alcotest.(check int) "fwd flips parity"
          (1 - Geometry.parity g site)
          (Geometry.parity g (Geometry.fwd g site mu))
      done)

let test_geometry_eo_roundtrip () =
  let g = small_geom () in
  Geometry.iter_sites g (fun site ->
      let p = Geometry.parity g site in
      let i = Geometry.eo_index g site in
      Alcotest.(check int) "eo roundtrip" site (Geometry.site_of_eo g ~parity:p ~index:i))

let test_geometry_parity_balanced () =
  let g = Geometry.create [| 2; 2; 4; 6 |] in
  let even = ref 0 in
  Geometry.iter_sites g (fun s -> if Geometry.parity g s = 0 then incr even);
  Alcotest.(check int) "half even" (Geometry.volume g / 2) !even

let test_geometry_wrap () =
  let g = Geometry.create [| 4; 4; 4; 4 |] in
  let origin = Geometry.site g [| 0; 0; 0; 0 |] in
  let wrapped = Geometry.bwd g origin 0 in
  Alcotest.(check int) "wraps to far edge" (Geometry.site g [| 3; 0; 0; 0 |]) wrapped;
  Alcotest.(check bool) "crosses boundary" true
    (Geometry.crosses_boundary_fwd g wrapped 0)

(* an odd extent's periodic wrap joins two sites of one parity: a
   red-black solve on it runs a Schur complement that is not D's *)
let test_geometry_rejects_odd_extents () =
  List.iter
    (fun dims ->
      match Geometry.create dims with
      | _ ->
        Alcotest.failf "odd extent accepted: %s"
          (String.concat "x" (Array.to_list (Array.map string_of_int dims)))
      | exception Invalid_argument _ -> ())
    [ [| 3; 2; 2; 4 |]; [| 2; 2; 2; 3 |] ]

(* ---- Gauge observables ---- *)

let test_cold_plaquette () =
  let g = small_geom () in
  let u = Gauge.unit g in
  Alcotest.(check (float 1e-12)) "cold plaquette = 1" 1. (Gauge.average_plaquette u);
  Alcotest.(check (float 1e-9)) "cold action = 0" 0. (Gauge.wilson_action u ~beta:6.)

let test_hot_plaquette_small () =
  let g = small_geom () in
  let u = Gauge.random g (rng ()) in
  let p = Gauge.average_plaquette u in
  Alcotest.(check bool) (Printf.sprintf "hot plaquette ~ 0 (got %g)" p) true
    (abs_float p < 0.2)

let test_gauge_invariance_of_plaquette () =
  (* Apply a random gauge transformation g(x):
     U_mu(x) -> g(x) U_mu(x) g^dag(x + mu). The plaquette is invariant. *)
  let geom = small_geom () in
  let r = rng () in
  let u = Gauge.warm geom r ~eps:0.7 in
  let before = Gauge.average_plaquette u in
  let gs = Array.init (Geometry.volume geom) (fun _ -> Su3.random r) in
  let transformed = Gauge.copy u in
  Geometry.iter_sites geom (fun site ->
      for mu = 0 to 3 do
        let xf = Geometry.fwd geom site mu in
        Gauge.set transformed site mu
          (Su3.mul gs.(site) (Su3.mul (Gauge.get u site mu) (Su3.adj gs.(xf))))
      done);
  let after = Gauge.average_plaquette transformed in
  Alcotest.(check (float 1e-10)) "plaquette gauge invariant" before after

let test_unitarity_violation_tracking () =
  let geom = small_geom () in
  let u = Gauge.warm geom (rng ()) ~eps:0.3 in
  Alcotest.(check bool) "warm start unitary" true
    (Gauge.max_unitarity_violation u < 1e-9)

let test_reunitarize_accuracy () =
  (* the projection the recon codecs lean on (Check.Recon_check's
     RECON001 hint): a warm field drifted off the group by accumulated
     rounding-scale perturbations must come back to machine unitarity *)
  let geom = small_geom () in
  let u = Gauge.warm geom (rng ()) ~eps:0.3 in
  let d = Gauge.data u in
  for e = 0 to Linalg.Field.length d - 1 do
    Bigarray.Array1.set d e
      (Bigarray.Array1.get d e *. (1. +. (1e-6 *. float_of_int (e mod 7))))
  done;
  Alcotest.(check bool) "drifted off the group" true
    (Gauge.max_unitarity_violation u > 1e-7);
  Gauge.reunitarize u;
  Alcotest.(check bool) "projected back within 1e-12" true
    (Gauge.max_unitarity_violation u < 1e-12)

let test_antiperiodic_phases () =
  let geom = small_geom () in
  let u = Gauge.unit geom in
  let ap = Gauge.with_antiperiodic_time u in
  let flipped = ref 0 and same = ref 0 in
  Geometry.iter_sites geom (fun site ->
      let link = Gauge.get ap site 3 in
      let d_id = Su3.frobenius_dist link (Su3.id ()) in
      let d_mid = Su3.frobenius_dist link (Su3.scale (-1.) (Su3.id ())) in
      if d_mid < 1e-12 then incr flipped
      else if d_id < 1e-12 then incr same
      else Alcotest.fail "unexpected link");
  let vol = Geometry.volume geom in
  Alcotest.(check int) "one slice flipped" (vol / 4) !flipped;
  Alcotest.(check int) "rest unchanged" (vol * 3 / 4) !same

(* ---- Heatbath ---- *)

let test_kennedy_pendleton_distribution () =
  (* For alpha, <a0> = coth(...) analytic check is messy; use weak
     alpha: density ~ sqrt(1-x^2)(1 + alpha x), <a0> = alpha/4 + O(a^3). *)
  let r = rng () in
  let alpha = 0.3 in
  let n = 200_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Heatbath.kennedy_pendleton r ~alpha
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "<a0> ~ alpha/4 (got %g, want %g)" mean (alpha /. 4.))
    true
    (abs_float (mean -. (alpha /. 4.)) < 0.01)

let test_heatbath_preserves_group () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let r = rng () in
  let u = Gauge.random geom r in
  for _ = 1 to 2 do
    Heatbath.sweep r ~beta:5.5 u
  done;
  Alcotest.(check bool) "links still SU(3)" true
    (Gauge.max_unitarity_violation u < 1e-9)

let test_overrelax_preserves_action () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let r = rng () in
  let u = Gauge.warm geom r ~eps:0.5 in
  let beta = 5.5 in
  let s0 = Gauge.wilson_action u ~beta in
  Heatbath.overrelax_sweep u;
  let s1 = Gauge.wilson_action u ~beta in
  Alcotest.(check bool)
    (Printf.sprintf "action preserved (%g -> %g)" s0 s1)
    true
    (abs_float (s1 -. s0) /. Float.max 1. (abs_float s0) < 1e-8);
  (* but the configuration moved *)
  Alcotest.(check bool) "links changed" true (Gauge.average_plaquette u > 0.)

let test_heatbath_strong_coupling () =
  (* Strong-coupling expansion: <P> = beta/18 + O(beta^2) for SU(3). *)
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let r = rng () in
  let beta = 0.5 in
  let u = Gauge.random geom r in
  for _ = 1 to 20 do
    Heatbath.sweep r ~beta u
  done;
  let samples =
    Array.init 20 (fun _ ->
        Heatbath.sweep r ~beta u;
        Gauge.average_plaquette u)
  in
  let p = Util.Stats.mean samples in
  let expect = beta /. 18. in
  Alcotest.(check bool)
    (Printf.sprintf "strong coupling plaquette (got %g, want %g)" p expect)
    true
    (abs_float (p -. expect) < 0.01)

let test_heatbath_orders_phases () =
  (* At beta = 5.7 the plaquette should be far from both 0 and 1
     (~0.55 in the literature); we check it thermalizes into (0.4, 0.7)
     from both hot and cold starts (a weak-but-real consistency test on
     a tiny lattice). *)
  let beta = 5.7 in
  let run start =
    let geom = Geometry.create [| 4; 4; 4; 4 |] in
    let r = rng () in
    let u = if start = `Hot then Gauge.random geom r else Gauge.unit geom in
    for _ = 1 to 30 do
      Heatbath.sweep r ~beta u
    done;
    Gauge.average_plaquette u
  in
  let ph = run `Hot and pc = run `Cold in
  Alcotest.(check bool) (Printf.sprintf "hot start plaquette %g" ph) true (ph > 0.4 && ph < 0.7);
  Alcotest.(check bool) (Printf.sprintf "cold start plaquette %g" pc) true (pc > 0.4 && pc < 0.7);
  Alcotest.(check bool)
    (Printf.sprintf "hot and cold agree (%g vs %g)" ph pc)
    true
    (abs_float (ph -. pc) < 0.05)

let test_generate_ensemble () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let r = rng () in
  let sched = { (Heatbath.default_schedule ~beta:5.5) with
                Heatbath.n_thermalize = 5; n_decorrelate = 2; n_overrelax = 1 } in
  let configs, history = Heatbath.generate r sched geom ~n_configs:3 in
  Alcotest.(check int) "3 configs" 3 (Array.length configs);
  Alcotest.(check int) "history length" (5 + (3 * 2)) (Array.length history);
  Array.iter
    (fun c ->
      Alcotest.(check bool) "config on group" true
        (Gauge.max_unitarity_violation c < 1e-9))
    configs

let test_unitarity_flags_nan () =
  (* a NaN compares false with everything, so a running max skipped it
     and the check reported the other links' ~1e-15 *)
  let u = Gauge.warm (small_geom ()) (rng ()) ~eps:0.3 in
  Bigarray.Array1.set (Gauge.data u) 5 Float.nan;
  let v = Gauge.max_unitarity_violation u in
  Alcotest.(check bool) (Printf.sprintf "NaN link fails the bound (got %g)" v) false (v < 1e-9);
  Alcotest.(check bool) "reported as infinity" true (v = infinity)

let raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

let test_heatbath_rejects_bad_beta () =
  let geom = Geometry.create [| 2; 2; 2; 2 |] in
  let sched beta = { (Heatbath.default_schedule ~beta) with Heatbath.n_thermalize = 1 } in
  List.iter
    (fun beta ->
      let u = Gauge.warm geom (rng ()) ~eps:0.3 in
      let what f = Printf.sprintf "%s at beta = %g" f beta in
      raises_invalid (what "sweep") (fun () -> Heatbath.sweep (rng ()) ~beta u);
      raises_invalid (what "update_link") (fun () -> Heatbath.update_link (rng ()) ~beta u 0 0);
      raises_invalid (what "generate") (fun () ->
          Heatbath.generate (rng ()) (sched beta) geom ~n_configs:1);
      Alcotest.(check bool) (what "field untouched") true
        (Gauge.max_unitarity_violation u < 1e-9))
    [ Float.nan; -1.; infinity ];
  (* beta = 0 is the free measure, a valid Monte Carlo *)
  let u = Gauge.warm geom (rng ()) ~eps:0.3 in
  Heatbath.sweep (rng ()) ~beta:0. u;
  Alcotest.(check bool) "beta = 0 sweeps on the group" true
    (Gauge.max_unitarity_violation u < 1e-9)

let test_generate_rejects_negative_counts () =
  let geom = Geometry.create [| 2; 2; 2; 2 |] in
  let base =
    { Heatbath.beta = 5.7; n_thermalize = 1; n_decorrelate = 1; n_overrelax = 1 }
  in
  List.iter
    (fun (what, sched) ->
      raises_invalid what (fun () -> Heatbath.generate (rng ()) sched geom ~n_configs:2))
    [
      ("n_thermalize = -1", { base with n_thermalize = -1 });
      ("n_decorrelate = -1", { base with n_decorrelate = -1 });
      ("n_overrelax = -1", { base with n_overrelax = -1 });
    ]

let test_generate_bit_identical () =
  (* hashes of every configuration's link bits and of the plaquette
     history's bits, recorded from the allocating gauge-update path
     before the in-place SU(3) kernels replaced it *)
  let sched =
    { Heatbath.beta = 5.7; n_thermalize = 3; n_decorrelate = 2; n_overrelax = 2 }
  in
  let configs, history =
    Heatbath.generate (Util.Rng.create 2023) sched (small_geom ()) ~n_configs:2
  in
  Alcotest.(check (list int)) "configuration hashes"
    [ 4236339314648298536; 131186421521411955 ]
    (Array.to_list (Array.map Solver.Deflate.gauge_hash configs));
  Alcotest.(check int) "plaquette history hash" 2890335726057156321
    (Solver.Deflate.field_hash (Linalg.Field.of_array history))

(* ---- Stout smearing ---- *)

let test_stout_preserves_group () =
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let u = Gauge.random geom (rng ()) in
  let s = Lattice.Smear.smear ~rho:0.1 ~steps:2 u in
  Alcotest.(check bool) "smeared links in SU(3)" true
    (Gauge.max_unitarity_violation s < 1e-9)

let test_stout_raises_plaquette () =
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let r = rng () in
  let u = Gauge.warm geom r ~eps:0.6 in
  let p0 = Gauge.average_plaquette u in
  let s1 = Lattice.Smear.step ~rho:0.1 u in
  let p1 = Gauge.average_plaquette s1 in
  let s2 = Lattice.Smear.step ~rho:0.1 s1 in
  let p2 = Gauge.average_plaquette s2 in
  Alcotest.(check bool) (Printf.sprintf "P rises %g -> %g" p0 p1) true (p1 > p0);
  Alcotest.(check bool) (Printf.sprintf "and again %g -> %g" p1 p2) true (p2 > p1)

let test_stout_identity_on_cold () =
  (* the cold configuration is a fixed point: staples are unit-aligned
     and Q vanishes *)
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let u = Gauge.unit geom in
  let s = Lattice.Smear.step ~rho:0.15 u in
  Geometry.iter_sites geom (fun site ->
      for mu = 0 to 3 do
        Alcotest.(check bool) "link unchanged" true
          (Su3.frobenius_dist (Gauge.get s site mu) (Su3.id ()) < 1e-12)
      done)

let test_stout_gauge_covariance () =
  (* smearing commutes with gauge transformations *)
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let r = rng () in
  let u = Gauge.warm geom r ~eps:0.5 in
  let gs = Array.init (Geometry.volume geom) (fun _ -> Su3.random r) in
  let transform field =
    let out = Gauge.copy field in
    Geometry.iter_sites geom (fun site ->
        for mu = 0 to 3 do
          let xf = Geometry.fwd geom site mu in
          Gauge.set out site mu
            (Su3.mul gs.(site) (Su3.mul (Gauge.get field site mu) (Su3.adj gs.(xf))))
        done);
    out
  in
  let a = transform (Lattice.Smear.step ~rho:0.1 u) in
  let b = Lattice.Smear.step ~rho:0.1 (transform u) in
  let worst = ref 0. in
  Geometry.iter_sites geom (fun site ->
      for mu = 0 to 3 do
        let d = Su3.frobenius_dist (Gauge.get a site mu) (Gauge.get b site mu) in
        if d > !worst then worst := d
      done);
  Alcotest.(check bool) (Printf.sprintf "covariant (worst %g)" !worst) true
    (!worst < 1e-9)

(* ---- Hybrid Monte Carlo ---- *)

let test_hmc_reversibility () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let r = rng () in
  let u = Gauge.warm geom r ~eps:0.5 in
  let dev = Lattice.Hmc.reversibility ~eps:0.05 ~steps:8 ~beta:5.7 r u in
  Alcotest.(check bool) (Printf.sprintf "reversible to roundoff (%g)" dev) true
    (dev < 1e-10)

let test_hmc_dh_scales_as_eps2 () =
  (* leapfrog is second order: halving eps quarters dH *)
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let r = rng () in
  let u = Gauge.warm geom r ~eps:0.5 in
  let dh eps = abs_float (Lattice.Hmc.dh_at ~tau:0.4 ~beta:5.7 ~eps (Util.Rng.create 9) u) in
  let d1 = dh 0.1 and d2 = dh 0.05 in
  let ratio = d1 /. d2 in
  Alcotest.(check bool)
    (Printf.sprintf "dH ratio %.2f in [2.5, 6]" ratio)
    true
    (ratio > 2.5 && ratio < 6.)

let test_hmc_momentum_distribution () =
  (* <Tr P^2> = 8 per link by equipartition (8 generators, weight
     exp(-Tr P^2 / 2)) *)
  let r = rng () in
  let n = 3000 in
  let acc = ref 0. in
  for _ = 1 to n do
    let p = Lattice.Hmc.random_momentum r in
    acc := !acc +. Su3.re_trace (Su3.mul p p)
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "<Tr P^2> = %g ~ 8" mean) true
    (abs_float (mean -. 8.) < 0.3)

let test_hmc_momentum_traceless_hermitian () =
  let r = rng () in
  for _ = 1 to 10 do
    let p = Lattice.Hmc.random_momentum r in
    let tr = Su3.trace p in
    Alcotest.(check bool) "traceless" true (Linalg.Cplx.abs tr < 1e-12);
    (* hermitian: p = p^dag *)
    Alcotest.(check bool) "hermitian" true
      (Su3.frobenius_dist p (Su3.adj p) < 1e-12)
  done

let test_hmc_acceptance_and_exactness () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let r = rng () in
  let u0 = Gauge.warm geom r ~eps:0.5 in
  let u, _, acc = Lattice.Hmc.run ~eps:0.05 ~steps:8 ~beta:5.7 ~n:40 r u0 in
  Alcotest.(check bool) (Printf.sprintf "acceptance %.2f > 0.5" acc) true (acc > 0.5);
  Alcotest.(check bool) "links stay in SU(3)" true
    (Gauge.max_unitarity_violation u < 1e-9);
  (* Creutz identity <exp(-dH)> = 1 on the equilibrated chain *)
  let u = ref u in
  let dhs = Array.init 60 (fun _ ->
      let t = Lattice.Hmc.trajectory ~eps:0.05 ~steps:8 ~beta:5.7 r !u in
      u := t.Lattice.Hmc.field;
      t.Lattice.Hmc.dh) in
  let e = Util.Stats.mean (Array.map (fun d -> exp (-.d)) dhs) in
  Alcotest.(check bool) (Printf.sprintf "<exp(-dH)> = %.3f ~ 1" e) true
    (abs_float (e -. 1.) < 0.4)

let test_hmc_matches_heatbath_weak_coupling () =
  (* two exact algorithms, one distribution: compare plaquettes at
     beta = 6.0 (away from the small-volume crossover) *)
  let beta = 6.0 in
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let r = rng () in
  let u = ref (Gauge.warm geom r ~eps:0.4) in
  for _ = 1 to 80 do
    u := (Lattice.Hmc.trajectory ~eps:0.05 ~steps:10 ~beta r !u).Lattice.Hmc.field
  done;
  let hmc_samples =
    Array.init 80 (fun _ ->
        let t = Lattice.Hmc.trajectory ~eps:0.05 ~steps:10 ~beta r !u in
        u := t.Lattice.Hmc.field;
        t.Lattice.Hmc.plaquette)
  in
  let hb = Gauge.warm geom (Util.Rng.create 12) ~eps:0.4 in
  let hb_rng = Util.Rng.create 13 in
  for _ = 1 to 60 do
    Heatbath.sweep hb_rng ~beta hb
  done;
  let hb_samples =
    Array.init 80 (fun _ ->
        Heatbath.sweep hb_rng ~beta hb;
        Gauge.average_plaquette hb)
  in
  let m_hmc = Util.Stats.mean hmc_samples and m_hb = Util.Stats.mean hb_samples in
  Alcotest.(check bool)
    (Printf.sprintf "HMC %g ~ heatbath %g (lit ~0.594)" m_hmc m_hb)
    true
    (abs_float (m_hmc -. m_hb) < 0.012);
  Alcotest.(check bool) "both near literature" true
    (abs_float (m_hb -. 0.594) < 0.01 && abs_float (m_hmc -. 0.594) < 0.012)

(* ---- Observables and gradient flow ---- *)

let test_wilson_loop_cold () =
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let u = Gauge.unit geom in
  Alcotest.(check (float 1e-12)) "cold 1x1" 1. (Lattice.Observables.average_wilson_loop u ~r:1 ~t:1);
  Alcotest.(check (float 1e-12)) "cold 2x2" 1. (Lattice.Observables.average_wilson_loop u ~r:2 ~t:2)

let test_wilson_loop_1x1_is_plaquette () =
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let u = Gauge.warm geom (rng ()) ~eps:0.5 in
  (* the 1x1 loop in (mu,3) planes averages a subset of plaquettes;
     compare against a direct computation *)
  let direct = ref 0. and count = ref 0 in
  Geometry.iter_sites geom (fun site ->
      for mu = 0 to 2 do
        direct := !direct +. Su3.re_trace (Gauge.plaquette u site mu 3);
        incr count
      done);
  let direct = !direct /. (3. *. float_of_int !count) in
  Alcotest.(check (float 1e-10)) "W(1,1) = temporal plaquette" direct
    (Lattice.Observables.average_wilson_loop u ~r:1 ~t:1)

let test_wilson_loop_area_law_trend () =
  (* on a rough configuration, larger loops are smaller in magnitude *)
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let u = Gauge.warm geom (rng ()) ~eps:0.8 in
  let w11 = abs_float (Lattice.Observables.average_wilson_loop u ~r:1 ~t:1) in
  let w22 = abs_float (Lattice.Observables.average_wilson_loop u ~r:2 ~t:2) in
  Alcotest.(check bool) (Printf.sprintf "W(2,2) %g < W(1,1) %g" w22 w11) true (w22 < w11)

let test_polyakov_cold () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let u = Gauge.unit geom in
  let p = Lattice.Observables.polyakov_loop u in
  Alcotest.(check bool) "cold Polyakov = 1" true
    (Linalg.Cplx.abs (Linalg.Cplx.sub p Linalg.Cplx.one) < 1e-12)

let test_energy_density_gauge_invariant () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let r = rng () in
  let u = Gauge.warm geom r ~eps:0.5 in
  let before = Lattice.Observables.average_energy_density u in
  let gs = Array.init (Geometry.volume geom) (fun _ -> Su3.random r) in
  let transformed = Gauge.copy u in
  Geometry.iter_sites geom (fun site ->
      for mu = 0 to 3 do
        let xf = Geometry.fwd geom site mu in
        Gauge.set transformed site mu
          (Su3.mul gs.(site) (Su3.mul (Gauge.get u site mu) (Su3.adj gs.(xf))))
      done);
  let after = Lattice.Observables.average_energy_density transformed in
  Alcotest.(check bool)
    (Printf.sprintf "E gauge invariant (%g vs %g)" before after)
    true
    (abs_float (before -. after) /. Float.max 1e-12 (abs_float before) < 1e-8)

let test_energy_density_cold_zero () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let u = Gauge.unit geom in
  Alcotest.(check (float 1e-20)) "cold E = 0" 0.
    (Lattice.Observables.average_energy_density u)

let test_topological_charge_cold_zero () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let u = Gauge.unit geom in
  Alcotest.(check (float 1e-12)) "cold Q = 0" 0.
    (Lattice.Observables.topological_charge u)

let test_flow_smooths () =
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let u = Gauge.warm geom (rng ()) ~eps:0.6 in
  let p0 = Gauge.average_plaquette u in
  let e0 = Lattice.Observables.average_energy_density u in
  let v, hist = Lattice.Flow.flow ~eps:0.02 ~t_max:0.1 u in
  let p1 = Gauge.average_plaquette v in
  let e1 = Lattice.Observables.average_energy_density v in
  Alcotest.(check bool) (Printf.sprintf "plaquette rises %g -> %g" p0 p1) true (p1 > p0);
  Alcotest.(check bool) (Printf.sprintf "energy falls %g -> %g" e0 e1) true (e1 < e0);
  Alcotest.(check int) "history recorded" 5 (List.length hist);
  Alcotest.(check bool) "flowed links unitary" true (Gauge.max_unitarity_violation v < 1e-9)

let test_flow_monotone_history () =
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let u = Gauge.warm geom (rng ()) ~eps:0.6 in
  let _, hist = Lattice.Flow.flow ~eps:0.02 ~t_max:0.08 u in
  let ps = List.map (fun h -> h.Lattice.Flow.plaquette) hist in
  let rec mono = function a :: b :: tl -> a <= b +. 1e-12 && mono (b :: tl) | _ -> true in
  Alcotest.(check bool) "plaquette monotone along flow" true (mono ps)

(* ---- Domain decomposition ---- *)

let test_domain_partition () =
  let g = Geometry.create [| 4; 4; 4; 8 |] in
  let d = Domain.create g [| 2; 1; 2; 2 |] in
  Alcotest.(check int) "8 ranks" 8 (Domain.n_ranks d);
  (* every global site owned exactly once *)
  let counts = Array.make (Geometry.volume g) 0 in
  for r = 0 to Domain.n_ranks d - 1 do
    let rg = Domain.rank_geometry d r in
    for s = 0 to rg.Domain.local_volume - 1 do
      counts.(rg.Domain.local_to_global.(s)) <- counts.(rg.Domain.local_to_global.(s)) + 1
    done
  done;
  Array.iter (fun c -> Alcotest.(check int) "owned once" 1 c) counts

let test_domain_neighbor_tables_consistent () =
  let g = Geometry.create [| 4; 4; 4; 4 |] in
  let d = Domain.create g [| 2; 2; 1; 1 |] in
  for r = 0 to Domain.n_ranks d - 1 do
    let rg = Domain.rank_geometry d r in
    for s = 0 to rg.Domain.local_volume - 1 do
      let gsite = rg.Domain.local_to_global.(s) in
      for mu = 0 to 3 do
        (* the extended index's global site must equal the global hop *)
        let f = Domain.fwd rg s mu in
        Alcotest.(check int) "fwd hop matches global"
          (Geometry.fwd g gsite mu)
          rg.Domain.local_to_global.(f);
        let b = Domain.bwd rg s mu in
        Alcotest.(check int) "bwd hop matches global"
          (Geometry.bwd g gsite mu)
          rg.Domain.local_to_global.(b)
      done
    done
  done

let test_domain_scatter_gather_roundtrip () =
  let g = Geometry.create [| 4; 4; 2; 2 |] in
  let d = Domain.create g [| 2; 2; 1; 1 |] in
  let dof = 3 in
  let r = rng () in
  let field = Linalg.Field.create (Geometry.volume g * dof) in
  Linalg.Field.gaussian r field;
  let locals =
    Array.init (Domain.n_ranks d) (fun rk -> Domain.scatter_field d ~dof field rk)
  in
  let back = Domain.gather_field d ~dof locals in
  Alcotest.(check (float 0.)) "roundtrip exact" 0. (Linalg.Field.max_abs_diff field back)

let test_domain_interior_boundary_split () =
  let g = Geometry.create [| 4; 4; 4; 4 |] in
  let d = Domain.create g [| 2; 1; 1; 1 |] in
  let rg = Domain.rank_geometry d 0 in
  Alcotest.(check int) "interior + boundary = volume"
    rg.Domain.local_volume
    (Array.length rg.Domain.interior_sites + Array.length rg.Domain.boundary_sites);
  (* interior sites never touch ghosts *)
  Array.iter
    (fun s ->
      for mu = 0 to 3 do
        Alcotest.(check bool) "interior fwd local" true
          (Domain.fwd rg s mu < rg.Domain.local_volume);
        Alcotest.(check bool) "interior bwd local" true
          (Domain.bwd rg s mu < rg.Domain.local_volume)
      done)
    rg.Domain.interior_sites

let test_domain_single_rank_grid () =
  (* trivial decomposition: all hops of boundary sites go to ghosts
     that mirror the same rank (self-exchange) *)
  let g = Geometry.create [| 2; 2; 2; 2 |] in
  let d = Domain.create g [| 1; 1; 1; 1 |] in
  let rg = Domain.rank_geometry d 0 in
  Alcotest.(check int) "local volume = global" (Geometry.volume g) rg.Domain.local_volume;
  Array.iter
    (fun (f : Domain.face) -> Alcotest.(check int) "self neighbor" 0 f.Domain.neighbor)
    rg.Domain.faces

let suite =
  [
    Alcotest.test_case "geometry coord roundtrip" `Quick test_geometry_roundtrip;
    Alcotest.test_case "geometry neighbors inverse" `Quick test_geometry_neighbors_inverse;
    Alcotest.test_case "geometry parity flips" `Quick test_geometry_neighbor_parity_flips;
    Alcotest.test_case "geometry eo roundtrip" `Quick test_geometry_eo_roundtrip;
    Alcotest.test_case "geometry parity balance" `Quick test_geometry_parity_balanced;
    Alcotest.test_case "geometry wrapping" `Quick test_geometry_wrap;
    Alcotest.test_case "geometry rejects odd extents" `Quick
      test_geometry_rejects_odd_extents;
    Alcotest.test_case "cold plaquette" `Quick test_cold_plaquette;
    Alcotest.test_case "hot plaquette" `Quick test_hot_plaquette_small;
    Alcotest.test_case "plaquette gauge invariance" `Quick test_gauge_invariance_of_plaquette;
    Alcotest.test_case "unitarity tracking" `Quick test_unitarity_violation_tracking;
    Alcotest.test_case "reunitarize accuracy" `Quick test_reunitarize_accuracy;
    Alcotest.test_case "antiperiodic phases" `Quick test_antiperiodic_phases;
    Alcotest.test_case "kennedy-pendleton distribution" `Slow test_kennedy_pendleton_distribution;
    Alcotest.test_case "heatbath stays in group" `Quick test_heatbath_preserves_group;
    Alcotest.test_case "overrelax preserves action" `Quick test_overrelax_preserves_action;
    Alcotest.test_case "strong-coupling plaquette" `Slow test_heatbath_strong_coupling;
    Alcotest.test_case "thermalization hot=cold" `Slow test_heatbath_orders_phases;
    Alcotest.test_case "ensemble generation" `Quick test_generate_ensemble;
    Alcotest.test_case "unitarity check flags NaN" `Quick test_unitarity_flags_nan;
    Alcotest.test_case "heatbath rejects bad beta" `Quick test_heatbath_rejects_bad_beta;
    Alcotest.test_case "generate rejects negative counts" `Quick
      test_generate_rejects_negative_counts;
    Alcotest.test_case "ensemble bits pinned" `Quick test_generate_bit_identical;
    Alcotest.test_case "stout stays in group" `Quick test_stout_preserves_group;
    Alcotest.test_case "stout raises plaquette" `Quick test_stout_raises_plaquette;
    Alcotest.test_case "stout fixes cold" `Quick test_stout_identity_on_cold;
    Alcotest.test_case "stout gauge covariant" `Quick test_stout_gauge_covariance;
    Alcotest.test_case "hmc reversibility" `Quick test_hmc_reversibility;
    Alcotest.test_case "hmc dH ~ eps^2" `Quick test_hmc_dh_scales_as_eps2;
    Alcotest.test_case "hmc momentum dist" `Quick test_hmc_momentum_distribution;
    Alcotest.test_case "hmc momentum algebra" `Quick test_hmc_momentum_traceless_hermitian;
    Alcotest.test_case "hmc exactness" `Slow test_hmc_acceptance_and_exactness;
    Alcotest.test_case "hmc = heatbath" `Slow test_hmc_matches_heatbath_weak_coupling;
    Alcotest.test_case "wilson loop cold" `Quick test_wilson_loop_cold;
    Alcotest.test_case "wilson loop = plaquette" `Quick test_wilson_loop_1x1_is_plaquette;
    Alcotest.test_case "wilson loop area trend" `Quick test_wilson_loop_area_law_trend;
    Alcotest.test_case "polyakov cold" `Quick test_polyakov_cold;
    Alcotest.test_case "energy density invariant" `Quick test_energy_density_gauge_invariant;
    Alcotest.test_case "energy density cold" `Quick test_energy_density_cold_zero;
    Alcotest.test_case "topological charge cold" `Quick test_topological_charge_cold_zero;
    Alcotest.test_case "gradient flow smooths" `Quick test_flow_smooths;
    Alcotest.test_case "flow monotone" `Quick test_flow_monotone_history;
    Alcotest.test_case "domain partition" `Quick test_domain_partition;
    Alcotest.test_case "domain neighbor tables" `Quick test_domain_neighbor_tables_consistent;
    Alcotest.test_case "domain scatter/gather" `Quick test_domain_scatter_gather_roundtrip;
    Alcotest.test_case "domain interior/boundary" `Quick test_domain_interior_boundary_split;
    Alcotest.test_case "domain single rank" `Quick test_domain_single_rank_grid;
  ]
