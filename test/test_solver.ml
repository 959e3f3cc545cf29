(* Tests for Solver: CG, mixed-precision CG with reliable updates, and
   the end-to-end domain-wall solves (red-black vs full oracle). *)

module Geometry = Lattice.Geometry
module Gauge = Lattice.Gauge
module Field = Linalg.Field
module Cplx = Linalg.Cplx
module Mobius = Dirac.Mobius
module Cg = Solver.Cg
module Mixed = Solver.Mixed
module Dwf = Solver.Dwf_solve

let rng () = Util.Rng.create 90_210

(* A small SPD operator: A = I + B^T B for a random sparse-ish B,
   realized densely on vectors of length n. *)
let make_spd n seed =
  let r = Util.Rng.create seed in
  let bmat = Array.init (n * n) (fun _ -> Util.Rng.gaussian r /. float_of_int n) in
  fun (src : Field.t) (dst : Field.t) ->
    (* dst = src + B^T (B src) *)
    let tmp = Array.make n 0. in
    for i = 0 to n - 1 do
      let acc = ref 0. in
      for j = 0 to n - 1 do
        acc := !acc +. (bmat.((i * n) + j) *. Bigarray.Array1.get src j)
      done;
      tmp.(i) <- !acc
    done;
    for j = 0 to n - 1 do
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. (bmat.((i * n) + j) *. tmp.(i))
      done;
      Bigarray.Array1.set dst j (Bigarray.Array1.get src j +. !acc)
    done

let test_cg_solves_spd () =
  let n = 48 in
  let apply = make_spd n 1 in
  let r = rng () in
  let b = Field.create n in
  Field.gaussian r b;
  let x, stats = Cg.solve ~apply ~b ~tol:1e-12 ~max_iter:500 ~flops_per_apply:1. () in
  Alcotest.(check bool) "converged" true stats.Cg.converged;
  let ax = Field.create n in
  apply x ax;
  let d = Field.create n in
  Field.sub b ax d;
  Alcotest.(check bool) "true residual small" true
    (sqrt (Field.norm2 d /. Field.norm2 b) < 1e-10)

(* stats.seconds is a monotonic-clock difference: never negative, even
   for a solve that exits before its first iteration *)
let test_solver_seconds_non_negative () =
  let n = 24 in
  let apply = make_spd n 5 in
  let b = Field.create n in
  Field.gaussian (rng ()) b;
  let check name (st : Cg.stats) =
    Alcotest.(check bool) (name ^ " seconds >= 0") true (st.Cg.seconds >= 0.)
  in
  check "cg" (snd (Cg.solve ~apply ~b ~tol:1e-10 ~max_iter:100 ~flops_per_apply:1. ()));
  check "cg zero rhs"
    (snd (Cg.solve ~apply ~b:(Field.create n) ~tol:1e-10 ~max_iter:10 ~flops_per_apply:1. ()));
  check "mixed" (snd (Mixed.solve ~apply ~b ~flops_per_apply:1. ()));
  check "bicgstab"
    (snd (Solver.Bicgstab.solve ~apply ~b ~tol:1e-10 ~max_iter:100 ~flops_per_apply:1. ()))

let test_cg_zero_rhs () =
  let apply = make_spd 8 2 in
  let b = Field.create 8 in
  let x, stats = Cg.solve ~apply ~b ~tol:1e-10 ~max_iter:10 ~flops_per_apply:1. () in
  Alcotest.(check bool) "converged" true stats.Cg.converged;
  Alcotest.(check int) "0 iterations" 0 stats.Cg.iterations;
  Alcotest.(check (float 0.)) "x = 0" 0. (Field.norm2 x);
  (* the distributed CG, 4^4 over two ranks: residual 0, not 0/0 *)
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let dom = Lattice.Domain.create geom [| 2; 1; 1; 1 |] in
  let dd = Vrank.Dd_solve.create (Vrank.Dd_wilson.create dom (Gauge.unit geom)) ~mass:0.1 in
  let x, st, _, _ =
    Vrank.Dd_solve.solve_normal dd ~b_global:(Field.create (Geometry.volume geom * 24))
  in
  Alcotest.(check bool) "dd converged" true st.Cg.converged;
  Alcotest.(check int) "dd 0 iterations" 0 st.Cg.iterations;
  Alcotest.(check (float 0.)) "dd relative residual" 0. st.Cg.relative_residual;
  Alcotest.(check (float 0.)) "dd x = 0" 0. (Field.norm2 x)

(* A non-positive p·Ap retires its right-hand side unconverged with
   the iterations it ran. On diag(-1, +1, -1, ...) with b = 1, p·Ap = 0
   at the first iteration. In a batch, the batch-mate's solve does not
   change. Fused and unfused, with and without [apply_dot], and with
   every RHS of the batch breaking down in the same iteration. *)
let test_cg_breakdown () =
  let n = 48 in
  let d i = if i mod 2 = 0 then -1. else 1. in
  let apply (src : Field.t) (dst : Field.t) =
    for i = 0 to n - 1 do
      dst.{i} <- d i *. src.{i}
    done
  in
  let apply_dot src dst =
    apply src dst;
    Field.dot_re src dst
  in
  let ones = Field.of_array (Array.make n 1.) in
  let plus = Field.of_array (Array.init n (fun i -> Float.max 0. (d i))) in
  let bits (st : Cg.stats) =
    ( st.Cg.iterations,
      st.Cg.converged,
      List.map Int64.bits_of_float
        (st.Cg.relative_residual :: st.Cg.flops
        :: Option.to_list st.Cg.true_relative_residual) )
  in
  List.iter
    (fun fused ->
      let solve ?apply_dot b =
        Cg.solve ~fused ?apply_dot ~apply ~b ~tol:1e-10 ~max_iter:1000
          ~flops_per_apply:1. ()
      in
      let solve_multi bs =
        Cg.solve_multi ~fused
          ~apply:(fun srcs dsts -> Array.iteri (fun i s -> apply s dsts.(i)) srcs)
          ~bs ~tol:1e-10 ~max_iter:1000 ~flops_per_apply:1. ()
      in
      let broke_down name (st : Cg.stats) =
        let name = Printf.sprintf "%s (fused=%b)" name fused in
        Alcotest.(check int) (name ^ ": 1 iteration") 1 st.Cg.iterations;
        Alcotest.(check bool) (name ^ ": not converged") false st.Cg.converged;
        Alcotest.(check (float 0.)) (name ^ ": 2 applies + 1 tail")
          (2. +. Cg.blas1_flops ~fused n) st.Cg.flops
      in
      broke_down "solve" (snd (solve ones));
      broke_down "solve ~apply_dot" (snd (solve ~apply_dot ones));
      Array.iter (broke_down "solve_multi, whole batch") (snd (solve_multi [| ones; ones |]));
      let xs, sts = solve_multi [| ones; plus |] in
      broke_down "solve_multi" sts.(0);
      let x, st = solve plus in
      let name = Printf.sprintf "batch-mate (fused=%b)" fused in
      Alcotest.(check bool) (name ^ " stats bitwise") true (bits sts.(1) = bits st);
      Alcotest.(check bool) (name ^ " x bitwise") true
        (List.for_all
           (fun i -> Int64.bits_of_float xs.(1).{i} = Int64.bits_of_float x.{i})
           (List.init n Fun.id)))
    [ false; true ]

(* A NaN or +Inf in b must not come back as a solution: every solver
   front end raises at entry, before the first iteration. At +Inf the
   CG target and |r|² are both +Inf, which read as converged. *)
let test_non_finite_rhs_rejected () =
  let n = 48 in
  let apply (src : Field.t) (dst : Field.t) =
    for i = 0 to n - 1 do
      dst.{i} <- (1. +. float_of_int i) *. src.{i}
    done
  in
  let poisoned v =
    let b = Field.create n in
    Field.gaussian (rng ()) b;
    b.{7} <- v;
    b
  in
  let rhs = "non-finite b" in
  List.iter
    (fun v ->
      let b = poisoned v in
      let raises name msg f =
        Alcotest.check_raises
          (Printf.sprintf "%s, %g in b" name v)
          (Invalid_argument (name ^ ": " ^ msg))
          (fun () -> ignore (f () : Field.t * Cg.stats))
      in
      raises "Cg.solve" rhs (fun () ->
          Cg.solve ~apply ~b ~tol:1e-10 ~max_iter:100 ~flops_per_apply:1. ());
      raises "Mixed.solve" rhs (fun () ->
          Mixed.solve ~apply ~b ~flops_per_apply:1. ());
      raises "Bicgstab.solve" rhs (fun () ->
          Solver.Bicgstab.solve ~apply ~b ~tol:1e-10 ~max_iter:100
            ~flops_per_apply:1. ()))
    [ Float.nan; Float.infinity ];
  let good = poisoned 1. in
  Alcotest.check_raises "Cg.solve_multi, NaN in one of two b"
    (Invalid_argument ("Cg.solve_multi: " ^ rhs))
    (fun () ->
      ignore
        (Cg.solve_multi
           ~apply:(fun srcs dsts -> Array.iteri (fun i s -> apply s dsts.(i)) srcs)
           ~bs:[| good; poisoned Float.nan |] ~tol:1e-10 ~max_iter:100
           ~flops_per_apply:1. ()
          : Field.t array * Cg.stats array));
  Alcotest.check_raises "Cg.solve, NaN in x0"
    (Invalid_argument "Cg.solve: non-finite initial residual")
    (fun () ->
      ignore
        (Cg.solve ~x0:(poisoned Float.nan) ~apply ~b:good ~tol:1e-10
           ~max_iter:100 ~flops_per_apply:1. ()
          : Field.t * Cg.stats))

let test_cg_initial_guess () =
  let n = 32 in
  let apply = make_spd n 3 in
  let r = rng () in
  let b = Field.create n in
  Field.gaussian r b;
  let x1, s1 = Cg.solve ~apply ~b ~tol:1e-12 ~max_iter:500 ~flops_per_apply:1. () in
  (* warm start from the solution: should converge immediately *)
  let _, s2 = Cg.solve ~x0:x1 ~apply ~b ~tol:1e-10 ~max_iter:500 ~flops_per_apply:1. () in
  Alcotest.(check bool) "warm start trivial" true (s2.Cg.iterations <= 1);
  Alcotest.(check bool) "cold start took iterations" true (s1.Cg.iterations > 1)

let test_cg_max_iter_respected () =
  let n = 64 in
  let apply = make_spd n 4 in
  let r = rng () in
  let b = Field.create n in
  Field.gaussian r b;
  let _, stats = Cg.solve ~apply ~b ~tol:1e-30 ~max_iter:3 ~flops_per_apply:1. () in
  Alcotest.(check bool) "stopped at max_iter" true (stats.Cg.iterations <= 3);
  Alcotest.(check bool) "not converged" true (not stats.Cg.converged)

let test_cg_flops_accounting () =
  let n = 16 in
  let apply = make_spd n 5 in
  let r = rng () in
  let b = Field.create n in
  Field.gaussian r b;
  let _, stats = Cg.solve ~apply ~b ~tol:1e-12 ~max_iter:100 ~flops_per_apply:1000. () in
  (* at least one apply per iteration plus the closing true-residual apply *)
  Alcotest.(check bool) "flops >= applies" true
    (stats.Cg.flops >= float_of_int (stats.Cg.iterations + 1) *. 1000.)

let test_mixed_cg_converges () =
  let n = 24 * 8 in
  (* block size must divide n *)
  let apply = make_spd n 6 in
  let r = rng () in
  let b = Field.create n in
  Field.gaussian r b;
  let x, stats = Mixed.solve ~apply ~b ~flops_per_apply:1. () in
  Alcotest.(check bool) "converged" true stats.Cg.converged;
  Alcotest.(check bool) "used reliable updates" true (stats.Cg.reliable_updates >= 1);
  let ax = Field.create n in
  apply x ax;
  let d = Field.create n in
  Field.sub b ax d;
  Alcotest.(check bool) "true residual meets tol" true
    (sqrt (Field.norm2 d /. Field.norm2 b) < 1e-7)

let test_mixed_matches_double () =
  let n = 24 * 4 in
  let apply = make_spd n 7 in
  let r = rng () in
  let b = Field.create n in
  Field.gaussian r b;
  let xd, _ = Cg.solve ~apply ~b ~tol:1e-10 ~max_iter:1000 ~flops_per_apply:1. () in
  let xm, _ =
    Mixed.solve
      ~config:{ Mixed.default_config with tol = 1e-10 }
      ~apply ~b ~flops_per_apply:1. ()
  in
  let d = Field.create n in
  Field.sub xd xm d;
  Alcotest.(check bool) "mixed = double within tolerance" true
    (sqrt (Field.norm2 d /. Field.norm2 xd) < 1e-6)

(* ---- BiCGStab ---- *)

(* BiCGStab uses complex inner products, so its operator must be
   complex-linear: a real matrix applied to the real and imaginary
   parts independently (interleaved layout, n complex components). *)
let make_spd_complex n seed =
  let r = Util.Rng.create seed in
  let bmat = Array.init (n * n) (fun _ -> Util.Rng.gaussian r /. float_of_int n) in
  fun (src : Field.t) (dst : Field.t) ->
    let tmp = Array.make (2 * n) 0. in
    for i = 0 to n - 1 do
      let re = ref 0. and im = ref 0. in
      for j = 0 to n - 1 do
        re := !re +. (bmat.((i * n) + j) *. Bigarray.Array1.get src (2 * j));
        im := !im +. (bmat.((i * n) + j) *. Bigarray.Array1.get src ((2 * j) + 1))
      done;
      tmp.(2 * i) <- !re;
      tmp.((2 * i) + 1) <- !im
    done;
    for j = 0 to n - 1 do
      let re = ref 0. and im = ref 0. in
      for i = 0 to n - 1 do
        re := !re +. (bmat.((i * n) + j) *. tmp.(2 * i));
        im := !im +. (bmat.((i * n) + j) *. tmp.((2 * i) + 1))
      done;
      Bigarray.Array1.set dst (2 * j) (Bigarray.Array1.get src (2 * j) +. !re);
      Bigarray.Array1.set dst ((2 * j) + 1)
        (Bigarray.Array1.get src ((2 * j) + 1) +. !im)
    done

let test_bicgstab_spd () =
  let n = 48 in
  let apply = make_spd_complex (n / 2) 31 in
  let r = rng () in
  let b = Field.create n in
  Field.gaussian r b;
  let x, st = Solver.Bicgstab.solve ~apply ~b ~tol:1e-10 ~max_iter:500 ~flops_per_apply:1. () in
  Alcotest.(check bool) "converged" true st.Cg.converged;
  let ax = Field.create n in
  apply x ax;
  let d = Field.create n in
  Field.sub b ax d;
  Alcotest.(check bool) "true residual" true (sqrt (Field.norm2 d /. Field.norm2 b) < 1e-8)

let test_bicgstab_nonhermitian () =
  (* BiCGStab's reason to exist: solve a genuinely non-hermitian system
     (a Wilson operator) directly. *)
  let geom = Geometry.create [| 4; 2; 2; 4 |] in
  let gauge = Gauge.random geom (rng ()) in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let n = Geometry.volume geom * 24 in
  let apply src dst = Dirac.Wilson.apply w ~mass:0.3 ~src ~dst in
  let r = rng () in
  let b = Field.create n in
  Field.gaussian r b;
  let x, st = Solver.Bicgstab.solve ~apply ~b ~tol:1e-10 ~max_iter:2000 ~flops_per_apply:1. () in
  Alcotest.(check bool) "converged" true st.Cg.converged;
  let ax = Field.create n in
  apply x ax;
  let d = Field.create n in
  Field.sub b ax d;
  Alcotest.(check bool) "solves Wilson directly" true
    (sqrt (Field.norm2 d /. Field.norm2 b) < 1e-8)

let test_bicgstab_matches_cgne () =
  (* same Wilson system through CG on the normal equations *)
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let gauge = Gauge.warm geom (rng ()) ~eps:0.3 in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let n = Geometry.volume geom * 24 in
  let apply src dst = Dirac.Wilson.apply w ~mass:0.3 ~src ~dst in
  let apply_normal src dst =
    let tmp = Field.create n in
    apply src tmp;
    let tmp2 = Field.create n in
    Dirac.Gamma.apply_gamma5 tmp tmp2;
    let tmp3 = Field.create n in
    apply tmp2 tmp3;
    Dirac.Gamma.apply_gamma5 tmp3 dst
  in
  let r = rng () in
  let b = Field.create n in
  Field.gaussian r b;
  let x_bi, _ = Solver.Bicgstab.solve ~apply ~b ~tol:1e-12 ~max_iter:4000 ~flops_per_apply:1. () in
  (* CGNE: M^dag M x = M^dag b with M^dag = g5 M g5 *)
  let rhs = Field.create n in
  let t1 = Field.create n in
  Dirac.Gamma.apply_gamma5 b t1;
  let t2 = Field.create n in
  apply t1 t2;
  Dirac.Gamma.apply_gamma5 t2 rhs;
  let x_cg, _ = Cg.solve ~apply:apply_normal ~b:rhs ~tol:1e-12 ~max_iter:4000 ~flops_per_apply:1. () in
  let d = Field.create n in
  Field.sub x_bi x_cg d;
  Alcotest.(check bool) "BiCGStab = CGNE solution" true
    (sqrt (Field.norm2 d /. Field.norm2 x_cg) < 1e-7)

(* ---- chronological forecasting ---- *)

let test_forecast_exact_history () =
  let n = 32 in
  let apply = make_spd n 77 in
  let r = rng () in
  let b = Field.create n in
  Field.gaussian r b;
  let x, _ = Cg.solve ~apply ~b ~tol:1e-13 ~max_iter:500 ~flops_per_apply:1. () in
  let f = Solver.Forecast.create ~depth:3 () in
  Solver.Forecast.record f x;
  (match Solver.Forecast.guess f ~apply ~b with
  | None -> Alcotest.fail "no guess"
  | Some g ->
    let ag = Field.create n in
    apply g ag;
    let d = Field.create n in
    Field.sub b ag d;
    Alcotest.(check bool) "exact history -> exact guess" true
      (sqrt (Field.norm2 d /. Field.norm2 b) < 1e-9))

let test_forecast_reduces_iterations () =
  let n = 64 in
  let apply = make_spd n 78 in
  let r = rng () in
  let b1 = Field.create n in
  Field.gaussian r b1;
  let x1, s_cold = Cg.solve ~apply ~b:b1 ~tol:1e-10 ~max_iter:500 ~flops_per_apply:1. () in
  let f = Solver.Forecast.create () in
  Solver.Forecast.record f x1;
  (* a nearby RHS: b2 = b1 + small perturbation *)
  let b2 = Field.copy b1 in
  let noise = Field.create n in
  Field.gaussian r noise;
  Field.axpy 0.01 noise b2;
  let guess = Option.get (Solver.Forecast.guess f ~apply ~b:b2) in
  let _, s_warm = Cg.solve ~x0:guess ~apply ~b:b2 ~tol:1e-10 ~max_iter:500 ~flops_per_apply:1. () in
  Alcotest.(check bool)
    (Printf.sprintf "warm %d < cold %d iters" s_warm.Cg.iterations s_cold.Cg.iterations)
    true
    (s_warm.Cg.iterations < s_cold.Cg.iterations)

let test_forecast_initial_residual () =
  (* the guess is the minimizer of |b - A x|^2 over the history span, so
     its initial residual must beat the cold start x0 = 0 (residual
     |b|^2) whenever the history correlates with b at all *)
  let n = 48 in
  let apply = make_spd n 79 in
  let r = rng () in
  let b1 = Field.create n in
  Field.gaussian r b1;
  let x1, _ = Cg.solve ~apply ~b:b1 ~tol:1e-10 ~max_iter:500 ~flops_per_apply:1. () in
  let f = Solver.Forecast.create () in
  Solver.Forecast.record f x1;
  let b2 = Field.copy b1 in
  let noise = Field.create n in
  Field.gaussian r noise;
  Field.axpy 0.05 noise b2;
  let guess = Option.get (Solver.Forecast.guess f ~apply ~b:b2) in
  let ag = Field.create n in
  apply guess ag;
  let d = Field.create n in
  Field.sub b2 ag d;
  let warm = Field.norm2 d and cold = Field.norm2 b2 in
  Alcotest.(check bool)
    (Printf.sprintf "warm residual %g < cold %g" warm cold)
    true (warm < cold)

let test_forecast_depth_bounded () =
  let f = Solver.Forecast.create ~depth:2 () in
  let v = Field.create 4 in
  Solver.Forecast.record f v;
  Solver.Forecast.record f v;
  Solver.Forecast.record f v;
  Alcotest.(check int) "bounded history" 2 (Solver.Forecast.size f)

let test_forecast_rejects_nonfinite () =
  (* a diverged solve's solution must not poison the history: record
     refuses NaN/inf vectors, counts them, and later guesses still
     come from the finite history alone *)
  let n = 32 in
  let apply = make_spd n 81 in
  let b = Field.create n in
  Field.gaussian (rng ()) b;
  let x, _ = Cg.solve ~apply ~b ~tol:1e-12 ~max_iter:500 ~flops_per_apply:1. () in
  let f = Solver.Forecast.create () in
  Solver.Forecast.record f x;
  let bad_nan = Field.copy x and bad_inf = Field.copy x in
  Bigarray.Array1.set bad_nan 3 Float.nan;
  Bigarray.Array1.set bad_inf 7 Float.infinity;
  Solver.Forecast.record f bad_nan;
  Solver.Forecast.record f bad_inf;
  Alcotest.(check int) "refused vectors are not kept" 1 (Solver.Forecast.size f);
  Alcotest.(check int) "and are counted" 2 (Solver.Forecast.rejected f);
  match Solver.Forecast.guess f ~apply ~b with
  | None -> Alcotest.fail "finite history must still forecast"
  | Some g ->
    let ag = Field.create n in
    apply g ag;
    let d = Field.create n in
    Field.sub b ag d;
    Alcotest.(check bool) "guess from the surviving exact history" true
      (sqrt (Field.norm2 d /. Field.norm2 b) < 1e-9)

let test_forecast_colinear_history () =
  (* two colinear solutions make the Gram system singular up to
     rounding; the guess must either be refused or stay finite — never
     a NaN propagated out of the near-singular solve *)
  let n = 32 in
  let apply = make_spd n 82 in
  let b = Field.create n in
  Field.gaussian (rng ()) b;
  let x, _ = Cg.solve ~apply ~b ~tol:1e-12 ~max_iter:500 ~flops_per_apply:1. () in
  let x2 = Field.copy x in
  Field.scale 2.0 x2;
  let f = Solver.Forecast.create () in
  Solver.Forecast.record f x;
  Solver.Forecast.record f x2;
  match Solver.Forecast.guess f ~apply ~b with
  | None -> ()  (* refusing the singular Gram system is correct *)
  | Some g ->
    let finite = ref true in
    for i = 0 to n - 1 do
      if not (Float.is_finite (Bigarray.Array1.get g i)) then finite := false
    done;
    Alcotest.(check bool) "colinear-history guess is finite" true !finite;
    let ag = Field.create n in
    apply g ag;
    let d = Field.create n in
    Field.sub b ag d;
    Alcotest.(check bool) "and no worse than the cold start" true
      (Field.norm2 d <= Field.norm2 b *. (1. +. 1e-9))

(* ---- spectral estimates ---- *)

let test_eigen_known_matrix () =
  (* diagonal operator with known spectrum *)
  let n = 16 in
  let diag = Array.init n (fun i -> 1. +. float_of_int i) in
  let apply (src : Field.t) (dst : Field.t) =
    for i = 0 to n - 1 do
      Bigarray.Array1.set dst i (diag.(i) *. Bigarray.Array1.get src i)
    done
  in
  let est = Solver.Eigen.condition_number ~rng:(rng ()) ~apply ~n () in
  Alcotest.(check bool)
    (Printf.sprintf "lambda_max %g ~ 16" est.Solver.Eigen.lambda_max)
    true
    (abs_float (est.Solver.Eigen.lambda_max -. 16.) < 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "lambda_min %g ~ 1" est.Solver.Eigen.lambda_min)
    true
    (abs_float (est.Solver.Eigen.lambda_min -. 1.) < 0.05);
  Alcotest.(check bool) "condition ~ 16" true
    (abs_float (est.Solver.Eigen.condition_number -. 16.) < 1.)

(* An operator CG cannot invert has no λ_min estimate: the inner solve
   of the first inverse-iteration step does not converge, so
   condition_number raises instead of reporting κ = 0. *)
let test_eigen_rejects_uninvertible () =
  let n = 48 in
  List.iter
    (fun lambda0 ->
      let diag = Array.init n (fun i -> if i = 0 then lambda0 else 1. +. float_of_int i) in
      let apply (src : Field.t) (dst : Field.t) =
        for i = 0 to n - 1 do
          dst.{i} <- diag.(i) *. src.{i}
        done
      in
      Alcotest.check_raises
        (Printf.sprintf "lambda_0 = %g" lambda0)
        (Invalid_argument "Eigen.power_min: inner CG did not converge at step 1")
        (fun () -> ignore (Solver.Eigen.condition_number ~apply ~n () : Solver.Eigen.estimate)))
    [ -0.5; 0. ]

let test_eigen_power_iterations () =
  (* power_max / power_min individually against a known diagonal
     spectrum, including the iteration counts being live *)
  let n = 12 in
  let diag = Array.init n (fun i -> 0.5 +. 0.25 *. float_of_int i) in
  let apply (src : Field.t) (dst : Field.t) =
    for i = 0 to n - 1 do
      Bigarray.Array1.set dst i (diag.(i) *. Bigarray.Array1.get src i)
    done
  in
  let lmax, it_max = Solver.Eigen.power_max ~apply ~n ~rng:(rng ()) () in
  let lmin, it_min = Solver.Eigen.power_min ~apply ~n ~rng:(rng ()) () in
  Alcotest.(check bool)
    (Printf.sprintf "lambda_max %g ~ %g" lmax diag.(n - 1))
    true
    (abs_float (lmax -. diag.(n - 1)) < 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "lambda_min %g ~ %g" lmin diag.(0))
    true
    (abs_float (lmin -. diag.(0)) < 0.05);
  Alcotest.(check bool) "iterations recorded" true (it_max > 0 && it_min > 0)

let test_eigen_power_min_warm_start () =
  let n = 12 in
  let diag = Array.init n (fun i -> 0.5 +. 0.25 *. float_of_int i) in
  let apply (src : Field.t) (dst : Field.t) =
    for i = 0 to n - 1 do
      Bigarray.Array1.set dst i (diag.(i) *. Bigarray.Array1.get src i)
    done
  in
  let _, it_cold = Solver.Eigen.power_min ~apply ~n ~rng:(rng ()) () in
  (* warm-start from the exact lowest mode (scaled: power_min
     normalizes its copy): one step confirms the eigenvalue *)
  let x0 = Field.create n in
  Field.fill x0 0.;
  Bigarray.Array1.set x0 0 5.0;
  let lmin, it_warm = Solver.Eigen.power_min ~x0 ~apply ~n ~rng:(rng ()) () in
  Alcotest.(check bool)
    (Printf.sprintf "warm lambda_min %g ~ %g" lmin diag.(0))
    true
    (abs_float (lmin -. diag.(0)) < 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "warm %d <= cold %d inverse iterations" it_warm it_cold)
    true (it_warm <= it_cold);
  Alcotest.check_raises "length mismatch rejected"
    (Invalid_argument "Eigen.power_min: x0 length") (fun () ->
      ignore (Solver.Eigen.power_min ~x0:(Field.create 3) ~apply ~n ~rng:(rng ()) ()))

let prop_eigen_condition_random_spd =
  (* the power/inverse estimate must land within a modest factor of
     the true condition number of random SPD diagonal operators across
     a spread of condition regimes *)
  QCheck.Test.make ~name:"eigen: condition estimate brackets random SPD"
    ~count:25
    QCheck.(pair (int_range 0 1_000_000) (int_range 8 48))
    (fun (seed, n) ->
      let r = Util.Rng.create seed in
      let diag =
        Array.init n (fun _ -> 10. ** (2. *. (Util.Rng.float r -. 0.5)))
      in
      let apply (src : Field.t) (dst : Field.t) =
        for i = 0 to n - 1 do
          Bigarray.Array1.set dst i (diag.(i) *. Bigarray.Array1.get src i)
        done
      in
      let lo = Array.fold_left min diag.(0) diag in
      let hi = Array.fold_left max diag.(0) diag in
      let true_kappa = hi /. lo in
      let est =
        Solver.Eigen.condition_number ~rng:(Util.Rng.create (seed + 1)) ~apply
          ~n ()
      in
      let k = est.Solver.Eigen.condition_number in
      Float.is_finite k && k > 0.
      && k >= true_kappa /. 3.
      && k <= true_kappa *. 3.)

let test_eigen_condition_predicts_cg () =
  (* CG iterations stay below the classical bound from the condition
     number *)
  let n = 64 in
  let apply = make_spd n 91 in
  let est = Solver.Eigen.condition_number ~rng:(rng ()) ~apply ~n () in
  let b = Field.create n in
  Field.gaussian (rng ()) b;
  let _, st = Cg.solve ~apply ~b ~tol:1e-8 ~max_iter:2000 ~flops_per_apply:1. () in
  let bound =
    Solver.Eigen.cg_iteration_bound
      ~condition_number:est.Solver.Eigen.condition_number ~tol:1e-8
  in
  Alcotest.(check bool)
    (Printf.sprintf "iters %d <= bound %.0f (+ slack)" st.Cg.iterations bound)
    true
    (float_of_int st.Cg.iterations <= (2. *. bound) +. 10.)

let test_eigen_mass_dependence () =
  (* the Mobius Schur normal operator gets worse-conditioned as the
     quark mass decreases: lattice QCD's critical slowing down *)
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let gauge = Gauge.warm geom (rng ()) ~eps:0.3 in
  let fgauge = Gauge.with_antiperiodic_time gauge in
  let kappa mass =
    let p = Dirac.Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass in
    let eo = Dirac.Mobius.of_geometry_eo p geom fgauge in
    let n = Dirac.Mobius.eo_field_length eo in
    let apply src dst = Dirac.Mobius.apply_schur_normal eo ~src ~dst in
    (Solver.Eigen.condition_number ~rng:(rng ()) ~apply ~n ()).Solver.Eigen.condition_number
  in
  let k_heavy = kappa 0.4 and k_light = kappa 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "kappa(m=0.05) %g > kappa(m=0.4) %g" k_light k_heavy)
    true (k_light > k_heavy)

(* ---- Domain-wall solves ---- *)

let dwf_setup () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let gauge = Gauge.warm geom (rng ()) ~eps:0.4 in
  let gauge = Gauge.with_antiperiodic_time gauge in
  let p = Dirac.Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass:0.1 in
  Dwf.create p geom gauge

let point_source t =
  let rhs = Field.create (Dwf.field_length t) in
  (* delta at 5D origin, spin 0, color 0 *)
  Bigarray.Array1.set rhs 0 1.;
  rhs

let test_dwf_eo_solve_residual () =
  let t = dwf_setup () in
  let rhs = point_source t in
  let x, stats = Dwf.solve t ~tol:1e-10 ~rhs in
  Alcotest.(check bool) "converged" true stats.Cg.converged;
  let res = Dwf.residual t ~x ~rhs in
  Alcotest.(check bool) (Printf.sprintf "residual %g < 1e-8" res) true (res < 1e-8)

let test_dwf_full_solve_residual () =
  let t = dwf_setup () in
  let rhs = point_source t in
  let x, stats = Dwf.solve_full t ~tol:1e-10 ~rhs in
  Alcotest.(check bool) "converged" true stats.Cg.converged;
  let res = Dwf.residual t ~x ~rhs in
  Alcotest.(check bool) (Printf.sprintf "residual %g < 1e-8" res) true (res < 1e-8)

let test_dwf_eo_matches_full () =
  (* D is nonsingular, so both paths must find the same solution. *)
  let t = dwf_setup () in
  let rhs = point_source t in
  let x_eo, _ = Dwf.solve t ~tol:1e-12 ~rhs in
  let x_full, _ = Dwf.solve_full t ~tol:1e-12 ~rhs in
  let d = Field.create (Field.length x_eo) in
  Field.sub x_eo x_full d;
  let rel = sqrt (Field.norm2 d /. Field.norm2 x_full) in
  Alcotest.(check bool) (Printf.sprintf "eo = full (rel %g)" rel) true (rel < 1e-8)

let test_dwf_mixed_precision_solve () =
  let t = dwf_setup () in
  let rhs = point_source t in
  let x, stats =
    Dwf.solve t ~precision:(Dwf.Mixed Mixed.default_config) ~tol:1e-8 ~rhs
  in
  let res = Dwf.residual t ~x ~rhs in
  Alcotest.(check bool) (Printf.sprintf "residual %g < 1e-6" res) true (res < 1e-6);
  Alcotest.(check bool) "reliable updates happened" true
    (stats.Cg.reliable_updates >= 1)

let test_dwf_eo_iterations_beat_full () =
  (* The red-black system is better conditioned; with the same
     tolerance it should not need more iterations than the
     unpreconditioned normal equations. *)
  let t = dwf_setup () in
  let rhs = point_source t in
  let _, s_eo = Dwf.solve t ~tol:1e-10 ~rhs in
  let _, s_full = Dwf.solve_full t ~tol:1e-10 ~rhs in
  Alcotest.(check bool)
    (Printf.sprintf "eo iters %d <= full iters %d" s_eo.Cg.iterations
       s_full.Cg.iterations)
    true
    (s_eo.Cg.iterations <= s_full.Cg.iterations)

(* ---- free-field Möbius solve against its momentum-space form ----
   On the unit gauge field D maps a plane wave e^{ipx} chi_s to
   e^{ipx} (D(p) chi)_s, with D_W(p) = 4 - M5 - sum cos p_mu
   + i sum gamma_mu sin p_mu and mobius.ml's s-structure:
   D(p)_{s,s} = b5 D_W + 1, D(p)_{s,s+1} = (c5 D_W - 1) P-,
   D(p)_{s,s-1} = (c5 D_W - 1) P+, the wrap-around terms times -m.
   D(p) is colour-diagonal: one 4·L5 complex system per colour. *)

let gauss_solve (a : Cplx.t array array) (b : Cplx.t array) =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  for col = 0 to n - 1 do
    let piv = ref col in
    for row = col + 1 to n - 1 do
      if Cplx.abs a.(row).(col) > Cplx.abs a.(!piv).(col) then piv := row
    done;
    let swap v =
      let tmp = v.(col) in
      v.(col) <- v.(!piv);
      v.(!piv) <- tmp
    in
    swap a;
    swap b;
    for row = col + 1 to n - 1 do
      let f = Cplx.div a.(row).(col) a.(col).(col) in
      for c = col to n - 1 do
        a.(row).(c) <- Cplx.sub a.(row).(c) (Cplx.mul f a.(col).(c))
      done;
      b.(row) <- Cplx.sub b.(row) (Cplx.mul f b.(col))
    done
  done;
  let x = Array.make n Cplx.zero in
  for row = n - 1 downto 0 do
    let acc = ref b.(row) in
    for c = row + 1 to n - 1 do
      acc := Cplx.sub !acc (Cplx.mul a.(row).(c) x.(c))
    done;
    x.(row) <- Cplx.div !acc a.(row).(row)
  done;
  x

(* D(p) on (s, spin), row and column index s·4 + spin *)
let free_mobius_matrix (p : Mobius.params) mom =
  let cos_sum = Array.fold_left (fun acc pm -> acc +. cos pm) 0. mom in
  let dw =
    Array.init 4 (fun a ->
        Array.init 4 (fun b ->
            let diag = if a = b then 4. -. p.m5 -. cos_sum else 0. in
            let acc = ref (Cplx.make diag 0.) in
            for mu = 0 to 3 do
              acc :=
                Cplx.add !acc
                  (Cplx.mul (Cplx.make 0. (sin mom.(mu))) (Dirac.Gamma.matrix mu).(a).(b))
            done;
            !acc))
  in
  (* c·D_W + d *)
  let lin c d =
    Array.init 4 (fun a ->
        Array.init 4 (fun b ->
            Cplx.add (Cplx.scale c dw.(a).(b)) (Cplx.make (if a = b then d else 0.) 0.)))
  in
  let l5 = p.l5 in
  let m = Array.make_matrix (4 * l5) (4 * l5) Cplx.zero in
  let add_block s s' blk scale spins =
    for a = 0 to 3 do
      Array.iter
        (fun b ->
          m.((s * 4) + a).((s' * 4) + b) <-
            Cplx.add m.((s * 4) + a).((s' * 4) + b) (Cplx.scale scale blk.(a).(b)))
        spins
    done
  in
  let hop = lin p.c5 (-1.) in
  for s = 0 to l5 - 1 do
    add_block s s (lin p.b5 1.) 1. [| 0; 1; 2; 3 |];
    (if s = l5 - 1 then add_block s 0 hop (-.p.mass) Dirac.Gamma.chirality_minus_spins
     else add_block s (s + 1) hop 1. Dirac.Gamma.chirality_minus_spins);
    if s = 0 then add_block s (l5 - 1) hop (-.p.mass) Dirac.Gamma.chirality_plus_spins
    else add_block s (s - 1) hop 1. Dirac.Gamma.chirality_plus_spins
  done;
  m

let test_free_mobius_momentum_space () =
  let dims = [| 4; 4; 2; 4 |] in
  let geom = Geometry.create dims in
  let vol = Geometry.volume geom in
  let p = Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass:0.1 in
  let k = [| 1; 3; 1; 1 |] in
  let r = rng () in
  (* chi, and the expected solution, indexed s·12 + spin·3 + color *)
  let chi =
    Array.init (p.l5 * 12) (fun _ ->
        let re = Util.Rng.gaussian r in
        Cplx.make re (Util.Rng.gaussian r))
  in
  List.iter
    (fun antiperiodic ->
      let gauge = Gauge.unit geom in
      let gauge = if antiperiodic then Gauge.with_antiperiodic_time gauge else gauge in
      (* antiperiodic time shifts p_t by pi/T *)
      let mom =
        Array.init 4 (fun mu ->
            let half = if mu = 3 && antiperiodic then 0.5 else 0. in
            2. *. Float.pi *. (float_of_int k.(mu) +. half) /. float_of_int dims.(mu))
      in
      let plane (y : Cplx.t array) =
        let v = Field.create (p.l5 * vol * 24) in
        Geometry.iter_sites geom (fun site ->
            let c = Geometry.coords geom site in
            let phase = ref 0. in
            for mu = 0 to 3 do
              phase := !phase +. (mom.(mu) *. float_of_int c.(mu))
            done;
            let e = Cplx.exp_i !phase in
            for s = 0 to p.l5 - 1 do
              for comp = 0 to 11 do
                let z = Cplx.mul e y.((s * 12) + comp) in
                let o = (((s * vol) + site) * 24) + (comp * 2) in
                v.{o} <- z.Cplx.re;
                v.{o + 1} <- z.Cplx.im
              done
            done);
        v
      in
      let x, _ = Dwf.solve (Dwf.create p geom gauge) ~tol:1e-12 ~rhs:(plane chi) in
      let dp = free_mobius_matrix p mom in
      let want = Array.make (p.l5 * 12) Cplx.zero in
      for color = 0 to 2 do
        (* row s·4 + spin of D(p) is entry (s·4 + spin)·3 + color *)
        let y = gauss_solve dp (Array.init (4 * p.l5) (fun i -> chi.((i * 3) + color))) in
        Array.iteri (fun i z -> want.((i * 3) + color) <- z) y
      done;
      let d = Field.max_abs_diff x (plane want) in
      Alcotest.(check bool)
        (Printf.sprintf "%s time: D x = b vs D(p)^-1 chi (max diff %g)"
           (if antiperiodic then "antiperiodic" else "periodic")
           d)
        true (d < 1e-12))
    [ false; true ]

let test_dwf_linearity () =
  let t = dwf_setup () in
  let r = rng () in
  let n = Dwf.field_length t in
  let rhs1 = Field.create n and rhs2 = Field.create n in
  Field.gaussian r rhs1;
  Field.gaussian r rhs2;
  let x1, _ = Dwf.solve t ~tol:1e-12 ~rhs:rhs1 in
  let x2, _ = Dwf.solve t ~tol:1e-12 ~rhs:rhs2 in
  (* solve for rhs1 + 2 rhs2 *)
  let rhs3 = Field.copy rhs1 in
  Field.axpy 2. rhs2 rhs3;
  let x3, _ = Dwf.solve t ~tol:1e-12 ~rhs:rhs3 in
  let expect = Field.copy x1 in
  Field.axpy 2. x2 expect;
  let d = Field.create n in
  Field.sub x3 expect d;
  let rel = sqrt (Field.norm2 d /. Field.norm2 x3) in
  Alcotest.(check bool) (Printf.sprintf "linear (rel %g)" rel) true (rel < 1e-7)

let suite =
  [
    Alcotest.test_case "cg solves SPD" `Quick test_cg_solves_spd;
    Alcotest.test_case "cg zero rhs" `Quick test_cg_zero_rhs;
    Alcotest.test_case "non-finite rhs rejected" `Quick
      test_non_finite_rhs_rejected;
    Alcotest.test_case "solver seconds never negative" `Quick
      test_solver_seconds_non_negative;
    Alcotest.test_case "cg warm start" `Quick test_cg_initial_guess;
    Alcotest.test_case "cg max_iter" `Quick test_cg_max_iter_respected;
    Alcotest.test_case "cg flops accounting" `Quick test_cg_flops_accounting;
    Alcotest.test_case "cg breakdown reports iterations run" `Quick test_cg_breakdown;
    Alcotest.test_case "mixed cg converges" `Quick test_mixed_cg_converges;
    Alcotest.test_case "mixed = double" `Quick test_mixed_matches_double;
    Alcotest.test_case "bicgstab SPD" `Quick test_bicgstab_spd;
    Alcotest.test_case "bicgstab non-hermitian" `Quick test_bicgstab_nonhermitian;
    Alcotest.test_case "bicgstab = CGNE" `Quick test_bicgstab_matches_cgne;
    Alcotest.test_case "forecast exact" `Quick test_forecast_exact_history;
    Alcotest.test_case "forecast warm start" `Quick test_forecast_reduces_iterations;
    Alcotest.test_case "forecast initial residual" `Quick test_forecast_initial_residual;
    Alcotest.test_case "forecast depth" `Quick test_forecast_depth_bounded;
    Alcotest.test_case "forecast rejects non-finite" `Quick
      test_forecast_rejects_nonfinite;
    Alcotest.test_case "forecast colinear history" `Quick
      test_forecast_colinear_history;
    Alcotest.test_case "eigen known spectrum" `Quick test_eigen_known_matrix;
    Alcotest.test_case "eigen power iterations" `Quick test_eigen_power_iterations;
    Alcotest.test_case "eigen rejects uninvertible operator" `Quick
      test_eigen_rejects_uninvertible;
    Alcotest.test_case "eigen power_min warm start" `Quick
      test_eigen_power_min_warm_start;
    QCheck_alcotest.to_alcotest prop_eigen_condition_random_spd;
    Alcotest.test_case "eigen CG bound" `Quick test_eigen_condition_predicts_cg;
    Alcotest.test_case "critical slowing down" `Slow test_eigen_mass_dependence;
    Alcotest.test_case "dwf eo solve" `Quick test_dwf_eo_solve_residual;
    Alcotest.test_case "dwf full solve" `Quick test_dwf_full_solve_residual;
    Alcotest.test_case "dwf eo = full" `Quick test_dwf_eo_matches_full;
    Alcotest.test_case "dwf mixed precision" `Quick test_dwf_mixed_precision_solve;
    Alcotest.test_case "dwf eo conditioning" `Quick test_dwf_eo_iterations_beat_full;
    Alcotest.test_case "dwf linearity" `Slow test_dwf_linearity;
    Alcotest.test_case "free Mobius = momentum space" `Quick
      test_free_mobius_momentum_space;
  ]
