(* Spectral estimates for hermitian positive operators (the CG normal
   operators): power iteration for the largest eigenvalue, CG-based
   inverse iteration for the smallest, and the condition number that
   controls CG's convergence rate — the quantity behind lattice QCD's
   "critical slowing down" as the quark mass approaches zero. *)

module Field = Linalg.Field

type estimate = {
  lambda_max : float;
  lambda_min : float;
  condition_number : float;
  iterations_max : int;
  iterations_min : int;
}

(* Largest eigenvalue by power iteration, to relative change 1e-6 in at
   most 500 steps. *)
let power_max ~apply ~n ~rng () =
  let v = Field.create n in
  Field.gaussian rng v;
  Field.scale (1. /. Field.norm v) v;
  let av = Field.create n in
  let lambda = ref 0. in
  let iters = ref 0 in
  let converged = ref false in
  while (not !converged) && !iters < 500 do
    incr iters;
    apply v av;
    let l = Field.dot_re v av in
    if abs_float (l -. !lambda) <= 1e-6 *. Float.max 1. (abs_float l) then
      converged := true;
    lambda := l;
    let nrm = Field.norm av in
    if nrm = 0. then converged := true
    else begin
      Field.blit av v;
      Field.scale (1. /. nrm) v
    end
  done;
  (!lambda, !iters)

(* Smallest eigenvalue by inverse power iteration; each step solves
   A w = v with CG to 1e-8, and an inner solve that does not converge
   raises: it gives no estimate of the eigenvalue. [x0] warm-starts the
   iteration vector (e.g. the previous gauge configuration's lowest
   mode, for deflation setup reuse); absent, the start is a gaussian
   draw from [rng]. *)
let power_min ?(tol = 1e-6) ?(max_iter = 50) ?x0 ~apply ~n ~rng () =
  let v = Field.create n in
  (match x0 with
  | Some (w : Field.t) ->
    if Field.length w <> n then invalid_arg "Eigen.power_min: x0 length";
    Field.blit w v
  | None -> Field.gaussian rng v);
  Field.scale (1. /. Field.norm v) v;
  let lambda = ref infinity in
  let iters = ref 0 in
  let converged = ref false in
  let av = Field.create n in
  while (not !converged) && !iters < max_iter do
    incr iters;
    let w, st =
      Cg.solve ~apply ~b:v ~tol:1e-8 ~max_iter:20_000 ~flops_per_apply:1. ()
    in
    if not st.Cg.converged then
      invalid_arg
        (Printf.sprintf "Eigen.power_min: inner CG did not converge at step %d"
           !iters);
    let nrm = Field.norm w in
    Field.blit w v;
    Field.scale (1. /. nrm) v;
    apply v av;
    let l = Field.dot_re v av in
    if abs_float (l -. !lambda) <= tol *. Float.max 1e-30 (abs_float l) then
      converged := true;
    lambda := l
  done;
  (!lambda, !iters)

let condition_number ?(rng = Util.Rng.create 1) ~apply ~n () =
  let lambda_max, it_max = power_max ~apply ~n ~rng () in
  let lambda_min, it_min = power_min ~apply ~n ~rng () in
  {
    lambda_max;
    lambda_min;
    condition_number = lambda_max /. Float.max 1e-300 lambda_min;
    iterations_max = it_max;
    iterations_min = it_min;
  }

(* CG's classical iteration bound: iters ~ (1/2) sqrt(kappa) ln(2/tol). *)
let cg_iteration_bound ~condition_number ~tol =
  0.5 *. sqrt condition_number *. log (2. /. tol)
