(* Tests for Util: rng, stats, fit. *)

open Util

let check_float = Alcotest.(check (float 1e-9))

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  (* child and parent should not produce the same next values *)
  let xa = Rng.next_int64 a and xc = Rng.next_int64 c in
  Alcotest.(check bool) "different streams" true (xa <> xc)

(* The xoshiro256** stream is pinned to the bit: every seeded
   ensemble and test in the tree depends on it. *)
let test_rng_stream_pinned () =
  let r = Rng.create 20_180_920 in
  List.iter
    (fun want -> Alcotest.(check int64) "next_int64" want (Rng.next_int64 r))
    [ 0x1a1f9a67e81a9c45L; 0xaf2617050a92ed7aL; 0xb353e14e1ca4ce09L; 0x6a2c78afce31d375L ];
  let c = Rng.split r in
  Alcotest.(check int64) "split child" 0xe12f0498d8765092L (Rng.next_int64 (Rng.copy c));
  Alcotest.(check int64) "copy replays" 0xe12f0498d8765092L (Rng.next_int64 c);
  let r = Rng.create 20_180_920 in
  List.iter
    (fun want ->
      Alcotest.(check int64) "float bits" want (Int64.bits_of_float (Rng.float r)))
    [ 0x3fba1f9a67e81a98L; 0x3fe5e4c2e0a1525dL; 0x3fe66a7c29c39499L ];
  Alcotest.(check int64) "gaussian bits" 0xbfd1255b60c76e13L
    (Int64.bits_of_float (Rng.gaussian r));
  let c = Rng.split r in
  Alcotest.(check int) "int of the child" 494 (Rng.int c 1000);
  Alcotest.(check int64) "parent after split" 0x330dd64ff97270beL (Rng.next_int64 r);
  Alcotest.(check int64) "child again" 0xaae7d72ba7d5bf7fL (Rng.next_int64 c)

(* A draw allocates only the float it returns: the generator state is
   not boxed on every step. *)
let test_rng_float_allocation () =
  let r = Rng.create 5 in
  let draws = 100_000 in
  let acc = ref 0. in
  let w0 = Gc.minor_words () in
  for _ = 1 to draws do
    acc := !acc +. Rng.float r
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int draws in
  Alcotest.(check bool) (Printf.sprintf "%.2f minor words per draw" words) true (words <= 2.);
  Alcotest.(check bool) "draws are in [0, 1)" true (!acc >= 0. && !acc < float_of_int draws)

let test_rng_uniformity () =
  let rng = Rng.create 123 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.float rng
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_gaussian_moments () =
  let rng = Rng.create 99 in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  let m = Stats.mean xs and v = Stats.variance xs in
  Alcotest.(check bool) "mean ~ 0" true (abs_float m < 0.02);
  Alcotest.(check bool) "var ~ 1" true (abs_float (v -. 1.) < 0.03)

let test_rng_int_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done

let test_rng_int_uniform () =
  let rng = Rng.create 17 in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Rng.int rng 5 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "each bin ~ 1/5" true (abs_float (frac -. 0.2) < 0.01))
    counts

let test_rng_exponential () =
  let rng = Rng.create 31 in
  let xs = Array.init 50_000 (fun _ -> Rng.exponential rng ~mean:3.) in
  Alcotest.(check bool) "mean ~ 3" true (abs_float (Stats.mean xs -. 3.) < 0.1);
  Array.iter (fun x -> assert (x >= 0.)) xs

let test_stats_mean_var () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "mean" 3. (Stats.mean a);
  check_float "variance" 2.5 (Stats.variance a);
  check_float "population variance" 2. (Stats.variance ~ddof:0 a)

let test_stats_covariance () =
  let a = [| 1.; 2.; 3.; 4. |] in
  let b = [| 2.; 4.; 6.; 8. |] in
  check_float "cov(a, 2a)" (2. *. Stats.variance a) (Stats.covariance a b);
  check_float "corr = 1" 1. (Stats.correlation a b);
  (* zero-variance input: the coefficient is undefined; it must raise,
     not silently return NaN *)
  let flat = [| 3.; 3.; 3.; 3. |] in
  Alcotest.check_raises "corr of constant raises"
    (Invalid_argument "Stats.correlation: zero variance (undefined, would be NaN)")
    (fun () -> ignore (Stats.correlation flat b));
  Alcotest.check_raises "corr against constant raises"
    (Invalid_argument "Stats.correlation: zero variance (undefined, would be NaN)")
    (fun () -> ignore (Stats.correlation a flat))

let test_stats_percentile () =
  let a = [| 5.; 1.; 3.; 2.; 4. |] in
  check_float "median" 3. (Stats.median a);
  check_float "p0" 1. (Stats.percentile a 0.);
  check_float "p100" 5. (Stats.percentile a 100.);
  check_float "p25" 2. (Stats.percentile a 25.)

let test_jackknife_mean () =
  let a = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let est, err = Stats.jackknife ~estimator:Stats.mean a in
  check_float "jk estimate = mean" (Stats.mean a) est;
  (* jackknife error of the mean equals the standard error *)
  Alcotest.(check (float 1e-9)) "jk error = stderr" (Stats.standard_error a) err

let test_bootstrap_mean () =
  let rng = Rng.create 11 in
  let data = Array.init 200 (fun _ -> Rng.gaussian_sigma rng ~mu:10. ~sigma:2.) in
  let est, err, _ = Stats.bootstrap ~rng ~n_boot:500 ~estimator:Stats.mean data in
  Alcotest.(check bool) "estimate near 10" true (abs_float (est -. 10.) < 0.5);
  let expected_err = 2. /. sqrt 200. in
  Alcotest.(check bool)
    "error near sigma/sqrt(n)" true
    (abs_float (err -. expected_err) < 0.05)

let test_autocorrelation_uncorrelated () =
  let rng = Rng.create 13 in
  let data = Array.init 5000 (fun _ -> Rng.gaussian rng) in
  let tau = Stats.autocorrelation_time data in
  Alcotest.(check bool) "tau ~ 0.5 for iid" true (abs_float (tau -. 0.5) < 0.3)

let test_autocorrelation_correlated () =
  (* AR(1) with phi = 0.8: tau_int = 0.5*(1+phi)/(1-phi) = 4.5 *)
  let rng = Rng.create 14 in
  let n = 40_000 in
  let data = Array.make n 0. in
  for i = 1 to n - 1 do
    data.(i) <- (0.8 *. data.(i - 1)) +. Rng.gaussian rng
  done;
  let tau = Stats.autocorrelation_time data in
  Alcotest.(check bool)
    (Printf.sprintf "tau ~ 4.5 for AR(0.8), got %g" tau)
    true
    (tau > 3. && tau < 6.5)

let test_histogram () =
  let h = Stats.histogram ~bins:4 [| 0.; 1.; 2.; 3.; 4. |] in
  Alcotest.(check int) "total" 5 h.Stats.n_total;
  Alcotest.(check int) "bins" 4 (Array.length h.Stats.counts);
  Alcotest.(check int) "sum of counts" 5 (Array.fold_left ( + ) 0 h.Stats.counts)

let test_weighted_mean () =
  let m, s = Stats.weighted_mean [| (1., 1.); (3., 1.) |] in
  check_float "equal weights -> mean" 2. m;
  check_float "error 1/sqrt(2)" (1. /. sqrt 2.) s;
  let m2, _ = Stats.weighted_mean [| (1., 0.001); (100., 10.) |] in
  Alcotest.(check bool) "dominated by precise point" true (abs_float (m2 -. 1.) < 0.01)

let test_solve_linear_system () =
  (* 2x + y = 5 ; x + 3y = 10 -> x = 1, y = 3 *)
  let x = Fit.solve_linear_system [| 2.; 1.; 1.; 3. |] [| 5.; 10. |] in
  check_float "x" 1. x.(0);
  check_float "y" 3. x.(1)

let test_invert_matrix () =
  let a = [| 4.; 1.; 1.; 3. |] in
  let inv = Fit.invert_matrix a 2 in
  (* A * A^-1 = I *)
  let prod i j =
    (a.((i * 2) + 0) *. inv.(j)) +. (a.((i * 2) + 1) *. inv.(2 + j))
  in
  check_float "00" 1. (prod 0 0);
  check_float "01" 0. (prod 0 1);
  check_float "10" 0. (prod 1 0);
  check_float "11" 1. (prod 1 1)

let test_singular_raises () =
  Alcotest.check_raises "singular" Fit.Singular (fun () ->
      ignore (Fit.solve_linear_system [| 1.; 2.; 2.; 4. |] [| 1.; 2. |]))

let test_linear_lsq_exact () =
  (* y = 2 + 3x fit through exact points *)
  let xs = [| 0.; 1.; 2.; 3. |] in
  let ys = Array.map (fun x -> 2. +. (3. *. x)) xs in
  let sigmas = Array.make 4 1. in
  let r = Fit.linear_lsq ~basis:[| (fun _ -> 1.); (fun x -> x) |] ~xs ~ys ~sigmas in
  check_float "intercept" 2. r.Fit.params.(0);
  check_float "slope" 3. r.Fit.params.(1);
  Alcotest.(check bool) "chi2 ~ 0" true (r.Fit.chi2 < 1e-18)

let test_lm_exponential () =
  (* Recover A e^{-E x} from noiseless data. *)
  let model p x = p.(0) *. exp (-.p.(1) *. x) in
  let xs = Array.init 12 float_of_int in
  let ys = Array.map (fun x -> 3.5 *. exp (-0.4 *. x)) xs in
  let sigmas = Array.map (fun y -> Float.max (0.01 *. y) 1e-6) ys in
  let r = Fit.levenberg_marquardt ~model ~xs ~ys ~sigmas [| 1.; 1. |] in
  Alcotest.(check bool) "converged" true r.Fit.converged;
  Alcotest.(check (float 1e-4)) "amplitude" 3.5 r.Fit.params.(0);
  Alcotest.(check (float 1e-5)) "energy" 0.4 r.Fit.params.(1)

let test_lm_noisy_two_state () =
  (* Two-exponential fit, the shape used for correlators. *)
  let rng = Rng.create 2024 in
  let model p x = (p.(0) *. exp (-.p.(1) *. x)) +. (p.(2) *. exp (-.p.(3) *. x)) in
  let truth = [| 1.0; 0.3; 0.5; 0.9 |] in
  let xs = Array.init 16 float_of_int in
  let sigmas = Array.map (fun x -> 0.002 *. exp (-0.3 *. x)) xs in
  let ys =
    Array.mapi (fun i x -> model truth x +. (sigmas.(i) *. Rng.gaussian rng)) xs
  in
  let r = Fit.levenberg_marquardt ~model ~xs ~ys ~sigmas [| 0.8; 0.25; 0.3; 1.2 |] in
  Alcotest.(check bool) "converged" true r.Fit.converged;
  Alcotest.(check bool)
    (Printf.sprintf "ground-state energy recovered (%g)" r.Fit.params.(1))
    true
    (abs_float (r.Fit.params.(1) -. 0.3) < 0.02);
  Alcotest.(check bool) "chi2/dof reasonable" true (r.Fit.chi2 /. float_of_int r.Fit.dof < 3.)

let test_constant_fit () =
  let ys = [| 2.1; 1.9; 2.0; 2.05; 1.95 |] in
  let sigmas = Array.make 5 0.1 in
  let r = Fit.constant_fit ~ys ~sigmas in
  Alcotest.(check (float 1e-9)) "plateau = mean" (Stats.mean ys) r.Fit.params.(0)

let test_si_format () =
  Alcotest.(check string) "tera" "1.500 TFlop/s" (Ascii.flops 1.5e12);
  Alcotest.(check string) "peta" "20.000 P" (Ascii.si_float 2e16);
  Alcotest.(check string) "unit" "3.000" (Ascii.si_float 3.)

let test_table_render () =
  let s = Ascii.render_table ~header:[ "a"; "b" ] [ [ "1"; "22" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "contains cells" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0));
  (* all rows same width *)
  let widths =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.length l > 0)
    |> List.map String.length
  in
  Alcotest.(check bool) "rectangular" true
    (List.for_all (fun w -> w = List.hd widths) widths)

(* the monotonic clock never steps backwards between readings *)
let test_clock_monotonic () =
  let prev = ref (Clock.now_s ()) in
  for _ = 1 to 100_000 do
    let t = Clock.now_s () in
    if t < !prev then Alcotest.failf "clock stepped back: %.9f < %.9f" t !prev;
    prev := t
  done

let suite =
  [
    Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng stream pinned" `Quick test_rng_stream_pinned;
    Alcotest.test_case "rng float allocation" `Quick test_rng_float_allocation;
    Alcotest.test_case "rng uniform mean" `Quick test_rng_uniformity;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int uniform" `Quick test_rng_int_uniform;
    Alcotest.test_case "rng exponential" `Quick test_rng_exponential;
    Alcotest.test_case "stats mean/var" `Quick test_stats_mean_var;
    Alcotest.test_case "stats covariance" `Quick test_stats_covariance;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "jackknife of mean" `Quick test_jackknife_mean;
    Alcotest.test_case "bootstrap of mean" `Quick test_bootstrap_mean;
    Alcotest.test_case "autocorrelation iid" `Quick test_autocorrelation_uncorrelated;
    Alcotest.test_case "autocorrelation AR(1)" `Quick test_autocorrelation_correlated;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "weighted mean" `Quick test_weighted_mean;
    Alcotest.test_case "linear solve" `Quick test_solve_linear_system;
    Alcotest.test_case "matrix inverse" `Quick test_invert_matrix;
    Alcotest.test_case "singular detection" `Quick test_singular_raises;
    Alcotest.test_case "linear lsq exact" `Quick test_linear_lsq_exact;
    Alcotest.test_case "LM exponential" `Quick test_lm_exponential;
    Alcotest.test_case "LM two-state noisy" `Quick test_lm_noisy_two_state;
    Alcotest.test_case "constant fit" `Quick test_constant_fit;
    Alcotest.test_case "SI formatting" `Quick test_si_format;
    Alcotest.test_case "table rendering" `Quick test_table_render;
  ]
