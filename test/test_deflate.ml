(* Low-mode deflation: thick-restart Lanczos eigenpair correctness and
   determinism on operators with known spectra, the Deflate space's
   batched Galerkin kernels (bit-identical across pool geometries and
   between the single and multi-RHS entries), the measured iteration
   reduction through ?deflate on Cg/Mixed, the forecast composition,
   the configuration hashing, the rank tuning axis, the Perf_model
   amortization pricing, the DEF checker rules on clean/seeded pairs
   and the deflate plan-IR catalog entry. *)

module Field = Linalg.Field
module Lanczos = Solver.Lanczos
module Deflate = Solver.Deflate
module Cg = Solver.Cg
module Mixed = Solver.Mixed
module Pool = Util.Pool
module PM = Machine.Perf_model
module DC = Check.Deflate_check

let rng () = Util.Rng.create 20260808

let check_bits name (a : Field.t) (b : Field.t) =
  Alcotest.(check (float 0.)) name 0. (Field.max_abs_diff a b)

(* SPD diagonal operator with [nlow] separated low modes (geometric 4x
   spacing from [scale]) under a unit bulk — the spectrum shape every
   test in this file deflates. *)
let diag_op ?(nlow = 4) ?(scale = 1e-3) n =
  let diag =
    Array.init n (fun i ->
        if i < nlow then scale *. (4. ** float_of_int i)
        else 1. +. (float_of_int i /. float_of_int n))
  in
  let apply (x : Field.t) (y : Field.t) =
    for i = 0 to n - 1 do
      Bigarray.Array1.set y i (diag.(i) *. Bigarray.Array1.get x i)
    done
  in
  (diag, apply)

let gaussian n seed =
  let v = Field.create n in
  Field.gaussian (Util.Rng.create seed) v;
  v

let space_of ?(n = 192) ?(rank = 4) ?(seed = 5) ?(hash = 0x5eed) () =
  let _, apply = diag_op n in
  let space =
    Deflate.of_lanczos ~config_hash:hash
      (Lanczos.lowest ~tol:1e-8 ~rank ~apply ~n ~rng:(Util.Rng.create seed) ())
  in
  (apply, space)

(* ---------- Lanczos ---------- *)

let test_lanczos_eigenvalues () =
  let n = 192 in
  let diag, apply = diag_op n in
  let values, basis, stats =
    Lanczos.lowest ~tol:1e-8 ~rank:4 ~apply ~n ~rng:(rng ()) ()
  in
  Alcotest.(check bool) "converged" true stats.Lanczos.converged;
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "lowest eigenvalue %d" i)
        diag.(i) v)
    values;
  (* the Ritz vectors of a diagonal operator are coordinate axes: the
     i-th vector is supported on entry i up to the residual bound *)
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "vector %d on its axis" i)
        1.
        (abs_float (Bigarray.Array1.get v i)))
    basis

let test_lanczos_orthonormal () =
  let apply, space = space_of () in
  Alcotest.(check bool)
    "ortho drift under 1e-12" true
    (Deflate.ortho_drift space < 1e-12);
  Alcotest.(check bool)
    "eigen-residual under bound" true
    (Deflate.max_residual space ~apply < 1e-6)

let test_lanczos_deterministic () =
  let n = 192 in
  let _, apply = diag_op n in
  let run () = Lanczos.lowest ~tol:1e-8 ~rank:4 ~apply ~n ~rng:(rng ()) () in
  let v1, b1, s1 = run () in
  let v2, b2, s2 = run () in
  Alcotest.(check (array (float 0.))) "values bit-identical" v1 v2;
  Array.iteri (fun i v -> check_bits (Printf.sprintf "vector %d" i) v b2.(i)) b1;
  Alcotest.(check int) "same applies" s1.Lanczos.applies s2.Lanczos.applies

let test_sym_eig_diag () =
  let m =
    [| [| 4.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 9. |] |]
  in
  let vals, vecs = Lanczos.sym_eig m in
  Alcotest.(check (array (float 1e-12))) "ascending" [| 1.; 4.; 9. |] vals;
  Alcotest.(check (float 1e-12)) "eigvec of 1" 1. (abs_float vecs.(0).(1));
  Alcotest.(check (float 1e-12)) "eigvec of 9" 1. (abs_float vecs.(2).(2))

(* ---------- Deflate kernels ---------- *)

let prop_augment_pool_identity =
  QCheck.Test.make ~name:"augment: bit-identical for any pool geometry"
    ~count:30
    QCheck.(pair (int_range 1 4) (int_range 16 512))
    (fun (domains, chunk) ->
      let n = 192 in
      let _, space = space_of ~n () in
      let r = gaussian n 91 in
      let x1 = gaussian n 92 in
      let x2 = Field.copy x1 in
      Deflate.augment space ~r x1;
      Deflate.augment ~pool:(Pool.shared ~domains) ~chunk space ~r x2;
      Field.max_abs_diff x1 x2 = 0.)

let test_augment_multi_rows () =
  let n = 192 in
  let _, space = space_of ~n () in
  let k = 3 in
  let rs = Array.init k (fun i -> gaussian n (40 + i)) in
  let singles = Array.init k (fun i -> gaussian n (50 + i)) in
  let batched = Array.map Field.copy singles in
  Array.iteri (fun i x -> Deflate.augment space ~r:rs.(i) x) singles;
  Deflate.augment_multi space ~rs batched;
  Array.iteri
    (fun i x -> check_bits (Printf.sprintf "row %d" i) x singles.(i))
    batched

let test_project_kills_span () =
  let n = 192 in
  let _, space = space_of ~n () in
  let r = Field.copy (Deflate.basis space).(0) in
  Field.axpy 0.5 (Deflate.basis space).(2) r;
  Deflate.project space r;
  Alcotest.(check bool)
    "projected span is numerically zero" true
    (Field.norm r < 1e-12)

let test_deflated_guess_solves_low_modes () =
  (* on a source living entirely in the deflated span, the Galerkin
     guess IS the solution up to the eigen-residual bound *)
  let n = 192 in
  let _, apply = diag_op n in
  let _, space = space_of ~n () in
  let b = Field.create n in
  Field.fill b 0.;
  Field.axpy 2.0 (Deflate.basis space).(0) b;
  Field.axpy (-3.0) (Deflate.basis space).(3) b;
  let x = Deflate.deflated_guess space ~b in
  let ax = Field.create n in
  apply x ax;
  Field.axpy (-1.) b ax;
  Alcotest.(check bool)
    "residual of the guess under 1e-4" true
    (Field.norm ax /. Field.norm b < 1e-4)

(* ---------- hashing ---------- *)

let test_field_hash () =
  let v = gaussian 192 7 in
  let h1 = Deflate.field_hash v in
  Alcotest.(check int) "deterministic" h1 (Deflate.field_hash (Field.copy v));
  Alcotest.(check bool) "nonnegative" true (h1 >= 0);
  Bigarray.Array1.set v 100 (Bigarray.Array1.get v 100 +. 1e-13);
  Alcotest.(check bool)
    "one-ulp-scale edit changes the hash" true
    (Deflate.field_hash v <> h1)

let test_gauge_hash () =
  let geom = Lattice.Geometry.create [| 2; 2; 2; 2 |] in
  let g1 = Lattice.Gauge.random geom (Util.Rng.create 3) in
  let g2 = Lattice.Gauge.random geom (Util.Rng.create 4) in
  Alcotest.(check bool)
    "distinct configurations hash apart" true
    (Deflate.gauge_hash g1 <> Deflate.gauge_hash g2);
  Alcotest.(check int)
    "stable on the same links" (Deflate.gauge_hash g1) (Deflate.gauge_hash g1)

(* ---------- deflated solves ---------- *)

let solve_iters ?deflate ~apply ~b n =
  let _, st =
    Cg.solve ?deflate ~apply ~b ~tol:1e-10 ~max_iter:(100 * n)
      ~flops_per_apply:(2. *. float_of_int n) ()
  in
  Alcotest.(check bool) "converged" true st.Cg.converged;
  st.Cg.iterations

let test_cg_deflated_fewer_iterations () =
  let n = 192 in
  let _, apply = diag_op n in
  let _, space = space_of ~n () in
  let b = gaussian n 77 in
  let plain = solve_iters ~apply ~b n in
  let deflated = solve_iters ~deflate:space ~apply ~b n in
  Alcotest.(check bool)
    (Printf.sprintf "deflated %d < undeflated %d iterations" deflated plain)
    true
    (deflated * 2 < plain)

let test_cg_multi_matches_single () =
  let n = 192 in
  let _, apply = diag_op n in
  let _, space = space_of ~n () in
  let bs = Array.init 3 (fun i -> gaussian n (80 + i)) in
  let apply_multi srcs dsts = Array.iteri (fun i s -> apply s dsts.(i)) srcs in
  let xs, sts =
    Cg.solve_multi ~deflate:space ~apply:apply_multi ~bs ~tol:1e-10
      ~max_iter:(100 * n)
      ~flops_per_apply:(2. *. float_of_int n)
      ()
  in
  Array.iteri
    (fun i b ->
      let x, st =
        Cg.solve ~deflate:space ~apply ~b ~tol:1e-10 ~max_iter:(100 * n)
          ~flops_per_apply:(2. *. float_of_int n)
          ()
      in
      check_bits (Printf.sprintf "solution %d bit-identical" i) x xs.(i);
      Alcotest.(check int)
        (Printf.sprintf "iterations %d" i)
        st.Cg.iterations
        sts.(i).Cg.iterations)
    bs

let test_mixed_deflated_fewer_iterations () =
  (* n divisible by the 24-float half-codec block; the low modes sit
     above the half noise floor so the sloppy loop still sees them *)
  let n = 240 in
  let _, apply = diag_op ~nlow:4 ~scale:1e-2 n in
  let _, space =
    let space =
      Deflate.of_lanczos ~config_hash:0
        (Lanczos.lowest ~tol:1e-8 ~rank:4
           ~apply ~n ~rng:(Util.Rng.create 5) ())
    in
    (apply, space)
  in
  let b = gaussian n 88 in
  let run ?deflate () =
    let _, st =
      Mixed.solve ?deflate ~apply ~b
        ~flops_per_apply:(2. *. float_of_int n)
        ()
    in
    st.Cg.iterations
  in
  let plain = run () in
  let deflated = run ~deflate:space () in
  Alcotest.(check bool)
    (Printf.sprintf "deflated %d < undeflated %d inner iterations" deflated
       plain)
    true (deflated < plain)

let test_combined_guess () =
  let n = 192 in
  let _, apply = diag_op n in
  let _, space = space_of ~n () in
  let b = gaussian n 99 in
  (match Deflate.combined_guess ~apply ~b () with
  | None -> ()
  | Some _ -> Alcotest.fail "neither deflation nor history: expected None");
  let fc = Solver.Forecast.create () in
  let x_defl =
    match Deflate.combined_guess ~deflate:space ~forecast:fc ~apply ~b () with
    | Some x -> x
    | None -> Alcotest.fail "deflation alone must contribute"
  in
  check_bits "empty history: combined = deflated guess" x_defl
    (Deflate.deflated_guess space ~b);
  (* with the exact solution on record, the composition starts at
     residual ~0 and the low-mode correction adds nothing *)
  let exact, _ =
    Cg.solve ~apply ~b ~tol:1e-12 ~max_iter:(100 * n)
      ~flops_per_apply:(2. *. float_of_int n)
      ()
  in
  Solver.Forecast.record fc exact;
  match Deflate.combined_guess ~deflate:space ~forecast:fc ~apply ~b () with
  | None -> Alcotest.fail "history must contribute"
  | Some x ->
    let ax = Field.create n in
    apply x ax;
    Field.axpy (-1.) b ax;
    Alcotest.(check bool)
      "forecast+deflation residual under 1e-8" true
      (Field.norm ax /. Field.norm b < 1e-8)

(* ---------- tuning axis ---------- *)

let test_rank_axis_baseline () =
  let module V = Autotune.Variants in
  Alcotest.(check (list string))
    "rank-0 undeflated baseline leads the rank axis"
    [ "unfused_full18_k1_r0_serial"; "unfused_full18_k1_r8_serial" ]
    (List.map V.label (V.space ~ranks:[ 0; 8 ] ()))

let test_tune_deflation () =
  let module V = Autotune.Variants in
  let n = 192 in
  let _, apply = diag_op n in
  let bs = Array.init 4 (fun i -> gaussian n (11 + i)) in
  let tuner = Autotune.Tuner.create ~repeats:1 () in
  let plan = V.tune_deflation tuner ~apply ~bs ~signature:"test" in
  let winner = V.label plan in
  Alcotest.(check bool)
    "winner is in the candidate space" true
    (List.mem plan (V.space ~ranks:[ 0; 2; 4; 8 ] ()));
  (* the cache key names the campaign shape: the same signature and
     right-hand sides hit, a different solve count misses *)
  let w2 = V.label (V.tune_deflation tuner ~apply ~bs ~signature:"test") in
  Alcotest.(check string) "cache hit returns the same winner" winner w2;
  Alcotest.(check int) "one hit recorded" 1 (Autotune.Tuner.hit_count tuner);
  ignore (V.tune_deflation tuner ~apply ~bs:(Array.sub bs 0 2) ~signature:"test");
  Alcotest.(check int) "two solves search again" 2
    (Autotune.Tuner.tune_count tuner);
  Alcotest.(check bool)
    "signature extended with n and solves" true
    (List.exists
       (fun (e : Autotune.Tuner.entry) ->
         String.starts_with ~prefix:"test:n192:s4:dmax" e.signature)
       (Autotune.Tuner.entries tuner))

(* ---------- Perf_model pricing ---------- *)

let test_perf_model_setup () =
  Alcotest.(check int)
    "applies: basis + restarts*(basis-rank)" 22
    (PM.deflation_setup_applies ~rank:4 ~basis:10 ~restarts:2);
  Alcotest.check_raises "rank >= basis rejected"
    (Invalid_argument "Perf_model.deflation_setup_applies: basis must exceed rank")
    (fun () -> ignore (PM.deflation_setup_applies ~rank:10 ~basis:10 ~restarts:0));
  let n = 100 and fpa = 1000. in
  let applies = float_of_int (PM.deflation_setup_applies ~rank:4 ~basis:10 ~restarts:2) in
  Alcotest.(check (float 1e-6))
    "setup flops formula"
    ((applies *. fpa)
    +. (applies *. 8. *. float_of_int n *. 10.)
    +. (3. *. 100. *. 2. *. float_of_int n))
    (PM.deflation_setup_flops ~rank:4 ~basis:10 ~restarts:2 ~n
       ~flops_per_apply:fpa);
  Alcotest.(check (float 1e-6))
    "guess flops 4rn" (4. *. 4. *. 100.)
    (PM.deflation_guess_flops ~rank:4 ~n:100)

let test_perf_model_amortization () =
  Alcotest.(check (float 1e-9))
    "amortized setup" 250.
    (PM.deflation_amortized_flops ~setup_flops:1000. ~solves:4);
  Alcotest.(check (float 1e-9))
    "deflated condition" 100.
    (PM.deflated_condition ~lambda_max:1. ~lambda_cut:1e-2);
  Alcotest.(check (float 1e-9))
    "iteration ratio sqrt(kd/k)" 0.1
    (PM.deflation_iteration_ratio ~kappa:1e4 ~kappa_deflated:1e2);
  Alcotest.(check (float 1e-9))
    "break-even solves" 5.
    (PM.deflation_break_even_solves ~setup_s:10. ~t_undeflated_s:3.
       ~t_deflated_s:1.);
  Alcotest.(check bool)
    "no per-solve gain: never breaks even" true
    (PM.deflation_break_even_solves ~setup_s:10. ~t_undeflated_s:1.
       ~t_deflated_s:1.
    = infinity)

(* ---------- checker ---------- *)

let rules_of ds = List.map (fun d -> d.Check.Diagnostic.rule) ds

let test_deflate_check_live_rules () =
  (* DEF002's two branches on real spaces: each defect fires exactly
     one DEF002, and the message names the measurement that broke *)
  let n = 192 in
  let _, apply = diag_op n in
  let values, basis, stats =
    Lanczos.lowest ~tol:1e-8 ~rank:4 ~apply ~n ~rng:(Util.Rng.create 5) ()
  in
  let fires_one what measure ds =
    Alcotest.(check (list string)) (what ^ " fires one DEF002") [ "DEF002" ]
      (rules_of ds);
    Alcotest.(check bool) (what ^ " blames the " ^ measure) true
      (String.starts_with ~prefix:("deflation basis " ^ measure)
         (List.hd ds).Check.Diagnostic.message)
  in
  (* orthonormal, but the first Ritz value doubled: |A v − λ v| = λ₀ *)
  let doubled = Array.mapi (fun i v -> if i = 0 then 2. *. v else v) values in
  fires_one "doubled Ritz value" "eigen-residual"
    (DC.verify_space ~config_hash:0x5eed ~apply
       (Deflate.create ~basis ~values:doubled ~config_hash:0x5eed ()));
  (* a rescaled eigenvector is still an eigenvector: only the drift
     (v·v = 1.1²) breaks the bound *)
  Field.scale 1.1 basis.(0);
  fires_one "basis vector rescaled by 1.1" "orthonormality drift"
    (DC.verify_space ~config_hash:0x5eed ~apply
       (Deflate.of_lanczos ~config_hash:0x5eed (values, basis, stats)))

let test_verify_space_live () =
  let apply, space = space_of ~hash:0xfeed () in
  Alcotest.(check (list string))
    "live clean space is silent" []
    (rules_of
       (DC.verify_space ~config_hash:0xfeed ~apply space));
  Alcotest.(check (list string))
    "live stale space fires DEF001" [ "DEF001" ]
    (rules_of (DC.verify_space ~config_hash:0xbad ~apply space))

let test_fixtures_detected () =
  List.iter
    (fun name ->
      match Check.Fixtures.find name with
      | None -> Alcotest.failf "fixture %s missing" name
      | Some f ->
        let fired = rules_of (f.Check.Fixtures.run ()) in
        Alcotest.(check bool)
          (Printf.sprintf "%s fires %s" name f.Check.Fixtures.expect)
          true
          (List.mem f.Check.Fixtures.expect fired))
    [ "deflate-stale-space"; "deflate-drifted-basis" ]

let test_plan_catalog_entry () =
  match Check.Plan_record.find "deflate" with
  | None -> Alcotest.fail "deflate plan missing from the catalog"
  | Some build ->
    let plan = build () in
    let ds = Check.Plan_check.verify plan in
    Alcotest.(check (list string))
      "deflate prologue plan verifies silent" [] (rules_of ds)

let suite =
  [
    Alcotest.test_case "lanczos: known diag eigenpairs" `Quick
      test_lanczos_eigenvalues;
    Alcotest.test_case "lanczos: orthonormal within bound" `Quick
      test_lanczos_orthonormal;
    Alcotest.test_case "lanczos: deterministic rerun" `Quick
      test_lanczos_deterministic;
    Alcotest.test_case "sym_eig: diagonal matrix" `Quick test_sym_eig_diag;
    QCheck_alcotest.to_alcotest prop_augment_pool_identity;
    Alcotest.test_case "augment_multi: rows match single augment" `Quick
      test_augment_multi_rows;
    Alcotest.test_case "project removes the deflated span" `Quick
      test_project_kills_span;
    Alcotest.test_case "deflated guess solves in-span sources" `Quick
      test_deflated_guess_solves_low_modes;
    Alcotest.test_case "field_hash: deterministic, edit-sensitive" `Quick
      test_field_hash;
    Alcotest.test_case "gauge_hash keys configurations" `Quick test_gauge_hash;
    Alcotest.test_case "cg ?deflate: measured iteration reduction" `Quick
      test_cg_deflated_fewer_iterations;
    Alcotest.test_case "solve_multi ?deflate: bit-identical per RHS" `Quick
      test_cg_multi_matches_single;
    Alcotest.test_case "mixed ?deflate: fewer inner iterations" `Quick
      test_mixed_deflated_fewer_iterations;
    Alcotest.test_case "combined_guess: forecast then deflation" `Quick
      test_combined_guess;
    Alcotest.test_case "rank axis keeps the rank-0 baseline first" `Quick
      test_rank_axis_baseline;
    Alcotest.test_case "tune_deflation: labels, cache, signature" `Quick
      test_tune_deflation;
    Alcotest.test_case "perf model: setup pricing pins" `Quick
      test_perf_model_setup;
    Alcotest.test_case "perf model: amortization and break-even" `Quick
      test_perf_model_amortization;
    Alcotest.test_case "deflate_check: DEF002 on live spaces" `Quick
      test_deflate_check_live_rules;
    Alcotest.test_case "verify_space: live audit" `Quick test_verify_space_live;
    Alcotest.test_case "seeded deflate fixtures detected" `Quick
      test_fixtures_detected;
    Alcotest.test_case "plan catalog: deflate prologue verifies" `Quick
      test_plan_catalog_entry;
  ]
