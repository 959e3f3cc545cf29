(* Least-squares fitting for correlator analysis: dense linear solves,
   linear LSQ, and Levenberg-Marquardt for the nonlinear multi-state
   fits that extract gA from effective-coupling data. *)

exception Singular

(* Solve A x = b in place by Gaussian elimination with partial pivoting.
   A is n*n row-major; both A and b are clobbered. Returns x = b. *)
let solve_in_place a b n =
  for col = 0 to n - 1 do
    (* pivot *)
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if abs_float a.((r * n) + col) > abs_float a.((!piv * n) + col) then piv := r
    done;
    if abs_float a.((!piv * n) + col) < 1e-300 then raise Singular;
    if !piv <> col then begin
      for c = 0 to n - 1 do
        let tmp = a.((col * n) + c) in
        a.((col * n) + c) <- a.((!piv * n) + c);
        a.((!piv * n) + c) <- tmp
      done;
      let tmp = b.(col) in
      b.(col) <- b.(!piv);
      b.(!piv) <- tmp
    end;
    let inv_diag = 1. /. a.((col * n) + col) in
    for r = col + 1 to n - 1 do
      let f = a.((r * n) + col) *. inv_diag in
      if f <> 0. then begin
        for c = col to n - 1 do
          a.((r * n) + c) <- a.((r * n) + c) -. (f *. a.((col * n) + c))
        done;
        b.(r) <- b.(r) -. (f *. b.(col))
      end
    done
  done;
  for r = n - 1 downto 0 do
    let acc = ref b.(r) in
    for c = r + 1 to n - 1 do
      acc := !acc -. (a.((r * n) + c) *. b.(c))
    done;
    b.(r) <- !acc /. a.((r * n) + r)
  done;
  b

let solve_linear_system a b =
  let n = Array.length b in
  if Array.length a <> n * n then invalid_arg "Fit.solve_linear_system: shape";
  solve_in_place (Array.copy a) (Array.copy b) n

(* Invert a symmetric positive matrix by solving against unit vectors. *)
let invert_matrix a n =
  let inv = Array.make (n * n) 0. in
  for col = 0 to n - 1 do
    let e = Array.make n 0. in
    e.(col) <- 1.;
    let x = solve_in_place (Array.copy a) e n in
    for r = 0 to n - 1 do
      inv.((r * n) + col) <- x.(r)
    done
  done;
  inv

type result = {
  params : float array;
  errors : float array;  (* sqrt of covariance diagonal *)
  covariance : float array;  (* row-major n_params^2 *)
  chi2 : float;
  dof : int;
  converged : bool;
  iterations : int;
}

let chi2_of ~model ~xs ~ys ~sigmas params =
  let acc = ref 0. in
  for i = 0 to Array.length xs - 1 do
    let r = (ys.(i) -. model params xs.(i)) /. sigmas.(i) in
    acc := !acc +. (r *. r)
  done;
  !acc

(* Forward-difference Jacobian of the residual vector. *)
let jacobian ~model ~xs ~sigmas params =
  let np = Array.length params and nd = Array.length xs in
  let jac = Array.make (nd * np) 0. in
  let base = Array.init nd (fun i -> model params xs.(i)) in
  for j = 0 to np - 1 do
    let h = 1e-7 *. (abs_float params.(j) +. 1e-7) in
    let p = Array.copy params in
    p.(j) <- p.(j) +. h;
    for i = 0 to nd - 1 do
      jac.((i * np) + j) <- (model p xs.(i) -. base.(i)) /. (h *. sigmas.(i))
    done
  done;
  jac

(* Levenberg-Marquardt. The normal-equation matrix is damped as
   JtJ + lambda*diag(JtJ); lambda shrinks on accepted steps. *)
let levenberg_marquardt ~model ~xs ~ys ~sigmas initial =
  let max_iter = 200 and tol = 1e-10 in
  let nd = Array.length xs and np = Array.length initial in
  if Array.length ys <> nd || Array.length sigmas <> nd then
    invalid_arg "Fit.levenberg_marquardt: data length mismatch";
  if nd < np then invalid_arg "Fit.levenberg_marquardt: under-determined";
  let params = Array.copy initial in
  let lambda = ref 1e-3 in
  let chi2 = ref (chi2_of ~model ~xs ~ys ~sigmas params) in
  let converged = ref false in
  let iters = ref 0 in
  (try
     while (not !converged) && !iters < max_iter do
       incr iters;
       let jac = jacobian ~model ~xs ~sigmas params in
       (* JtJ and Jt r *)
       let jtj = Array.make (np * np) 0. in
       let jtr = Array.make np 0. in
       for i = 0 to nd - 1 do
         let ri = (ys.(i) -. model params xs.(i)) /. sigmas.(i) in
         for a = 0 to np - 1 do
           let ja = jac.((i * np) + a) in
           jtr.(a) <- jtr.(a) +. (ja *. ri);
           for b = 0 to np - 1 do
             jtj.((a * np) + b) <- jtj.((a * np) + b) +. (ja *. jac.((i * np) + b))
           done
         done
       done;
       let damped = Array.copy jtj in
       for a = 0 to np - 1 do
         damped.((a * np) + a) <- damped.((a * np) + a) *. (1. +. !lambda)
       done;
       let step =
         try Some (solve_in_place damped (Array.copy jtr) np)
         with Singular -> None
       in
       match step with
       | None -> lambda := !lambda *. 10.
       | Some dx ->
         let trial = Array.mapi (fun j p -> p +. dx.(j)) params in
         let trial_chi2 = chi2_of ~model ~xs ~ys ~sigmas trial in
         if trial_chi2 <= !chi2 then begin
           let delta = !chi2 -. trial_chi2 in
           Array.blit trial 0 params 0 np;
           chi2 := trial_chi2;
           lambda := Float.max (!lambda /. 10.) 1e-12;
           if delta < tol *. (1. +. !chi2) then converged := true
         end
         else begin
           lambda := !lambda *. 10.;
           if !lambda > 1e12 then converged := true
         end
     done
   with Singular -> ());
  (* Covariance from the undamped JtJ at the solution. *)
  let jac = jacobian ~model ~xs ~sigmas params in
  let jtj = Array.make (np * np) 0. in
  for i = 0 to nd - 1 do
    for a = 0 to np - 1 do
      for b = 0 to np - 1 do
        jtj.((a * np) + b) <-
          jtj.((a * np) + b) +. (jac.((i * np) + a) *. jac.((i * np) + b))
      done
    done
  done;
  let covariance =
    try invert_matrix jtj np with Singular -> Array.make (np * np) nan
  in
  let errors = Array.init np (fun a -> sqrt (abs_float covariance.((a * np) + a))) in
  {
    params;
    errors;
    covariance;
    chi2 = !chi2;
    dof = nd - np;
    converged = !converged;
    iterations = !iters;
  }

(* Linear least squares: design matrix given as basis functions. *)
let linear_lsq ~basis ~xs ~ys ~sigmas =
  let np = Array.length basis and nd = Array.length xs in
  if Array.length ys <> nd || Array.length sigmas <> nd then
    invalid_arg "Fit.linear_lsq: xs, ys and sigmas differ in length";
  if nd < np then invalid_arg "Fit.linear_lsq: under-determined";
  (* one NaN would poison every χ², and a caller comparing χ² (a
     profile scan) could not tell *)
  Array.iteri
    (fun i y ->
      let s = sigmas.(i) in
      if not (Float.is_finite y && Float.is_finite s && s > 0.) then
        invalid_arg
          (Printf.sprintf "Fit.linear_lsq: bad point %d (x = %g, y = %g, sigma = %g)" i
             xs.(i) y s))
    ys;
  let ata = Array.make (np * np) 0. in
  let atb = Array.make np 0. in
  for i = 0 to nd - 1 do
    let w = 1. /. (sigmas.(i) *. sigmas.(i)) in
    let row = Array.map (fun f -> f xs.(i)) basis in
    for a = 0 to np - 1 do
      atb.(a) <- atb.(a) +. (w *. row.(a) *. ys.(i));
      for b = 0 to np - 1 do
        ata.((a * np) + b) <- ata.((a * np) + b) +. (w *. row.(a) *. row.(b))
      done
    done
  done;
  let covariance = invert_matrix ata np in
  let params =
    Array.init np (fun a ->
        let acc = ref 0. in
        for b = 0 to np - 1 do
          acc := !acc +. (covariance.((a * np) + b) *. atb.(b))
        done;
        !acc)
  in
  let model p x =
    let acc = ref 0. in
    Array.iteri (fun j f -> acc := !acc +. (p.(j) *. f x)) basis;
    !acc
  in
  let chi2 = chi2_of ~model ~xs ~ys ~sigmas params in
  let errors = Array.init np (fun a -> sqrt (abs_float covariance.((a * np) + a))) in
  {
    params;
    errors;
    covariance;
    chi2;
    dof = nd - np;
    converged = true;
    iterations = 1;
  }

let constant_fit ~ys ~sigmas =
  let xs = Array.mapi (fun i _ -> float_of_int i) ys in
  linear_lsq ~basis:[| (fun _ -> 1.) |] ~xs ~ys ~sigmas
