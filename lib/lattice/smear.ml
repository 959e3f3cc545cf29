(* Stout link smearing (Morningstar-Peardon): the production workflow
   applies the domain-wall operator to smoothed gauge fields. One step:

     C_mu(x)   = rho * (sum of the 6 staples of U_mu(x))
     Omega     = C_mu(x) U_mu(x)^dag
     Q         = (i/2) [ (Omega^dag - Omega)
                         - (1/3) tr(Omega^dag - Omega) ]
     U'_mu(x)  = exp(i Q) U_mu(x)

   Q is hermitian and traceless, so exp(iQ) is SU(3); the exponential
   is evaluated by its (rapidly convergent, |rho|<<1) power series and
   snapped back to the group to absorb truncation. *)

module Su3 = Linalg.Su3
module Cplx = Linalg.Cplx

(* exp(i Q) via the power series sum (iQ)^k / k!, k <= 24. *)
let exp_i_herm (q : Su3.t) : Su3.t =
  let iq = Su3.cscale Cplx.i q in
  let acc = ref (Su3.id ()) in
  let term = ref (Su3.id ()) in
  for k = 1 to 24 do
    term := Su3.scale (1. /. float_of_int k) (Su3.mul !term iq);
    acc := Su3.add !acc !term
  done;
  Su3.reunitarize !acc

(* The stout Q matrix for one link given its staple sum. *)
let stout_q ~rho (u : Su3.t) (staple : Su3.t) : Su3.t =
  let omega = Su3.mul (Su3.scale rho staple) (Su3.adj u) in
  let diff = Su3.sub (Su3.adj omega) omega in
  (* remove the trace to stay in su(3) *)
  let tr = Su3.trace diff in
  let traceless = Su3.copy diff in
  let third = Cplx.scale (1. /. 3.) tr in
  for d = 0 to 2 do
    traceless.(Su3.idx d d) <- traceless.(Su3.idx d d) -. third.Cplx.re;
    traceless.(Su3.idx d d + 1) <- traceless.(Su3.idx d d + 1) -. third.Cplx.im
  done;
  (* (i/2) * traceless: hermitian *)
  Su3.cscale (Cplx.make 0. 0.5) traceless

(* One stout step over the whole field (returns a fresh field; all
   staples read the input). Site-partitioned pooled execution is
   race-free: every staple reads the input field, site x writes only
   out's four links at x, and each site's update is a pure function of
   the input — pooled and serial results are bit-identical. *)
let step ?(rho = 0.1) (field : Gauge.t) : Gauge.t =
  let geom = Gauge.geom field in
  let out = Gauge.copy field in
  let do_site site =
    for mu = 0 to Geometry.n_dim - 1 do
      let u = Gauge.get field site mu in
      let staple = Gauge.staple field site mu in
      (* Gauge.staple returns A with Re tr(U A); the stout C is the
         adjoint convention: C = rho * A^dag *)
      let q = stout_q ~rho u (Su3.adj staple) in
      Gauge.set out site mu (Su3.mul (exp_i_herm q) u)
    done
  in
  let vol = Geometry.volume geom in
  let pool = Util.Pool.get_default () in
  if Util.Pool.size pool > 1 && vol >= 256 then
    Util.Pool.parallel_for pool ~chunk:(max 16 (vol / (4 * Util.Pool.size pool)))
      ~n:vol (fun lo hi ->
        for site = lo to hi - 1 do
          do_site site
        done)
  else Geometry.iter_sites geom do_site;
  out

let smear ?(rho = 0.1) ~steps (field : Gauge.t) : Gauge.t =
  let rec loop n f = if n = 0 then f else loop (n - 1) (step ~rho f) in
  loop steps field
