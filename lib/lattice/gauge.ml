(* Gauge field U_mu(x): one SU(3) matrix per site and direction, stored
   flat as volume * 4 * 18 floats in a Bigarray so views interoperate
   with Linalg.Su3 (same 18-float layout). *)

open Bigarray

type t = {
  geom : Geometry.t;
  data : (float, float64_elt, c_layout) Array1.t;
}

let link_floats = 18

let base _t site mu = ((site * Geometry.n_dim) + mu) * link_floats

let create geom =
  let n = Geometry.volume geom * Geometry.n_dim * link_floats in
  let data = Array1.create float64 c_layout n in
  Array1.fill data 0.;
  { geom; data }

let geom t = t.geom
let data t = t.data

let get_into t site mu (m : Linalg.Su3.t) =
  if Array.length m <> link_floats then invalid_arg "Gauge.get_into: not 18 floats";
  let b = base t site mu in
  for i = 0 to link_floats - 1 do
    Array.unsafe_set m i (Array1.unsafe_get t.data (b + i))
  done

let get t site mu =
  let m = Linalg.Su3.zero () in
  get_into t site mu m;
  m

let set t site mu (m : Linalg.Su3.t) =
  let b = base t site mu in
  for i = 0 to link_floats - 1 do
    Array1.unsafe_set t.data (b + i) m.(i)
  done

let copy t =
  let fresh = create t.geom in
  Array1.blit t.data fresh.data;
  fresh

let unit geom =
  let t = create geom in
  let one = Linalg.Su3.id () in
  Geometry.iter_sites geom (fun site ->
      for mu = 0 to Geometry.n_dim - 1 do
        set t site mu one
      done);
  t

let random geom rng =
  let t = create geom in
  Geometry.iter_sites geom (fun site ->
      for mu = 0 to Geometry.n_dim - 1 do
        set t site mu (Linalg.Su3.random rng)
      done);
  t

let warm geom rng ~eps =
  let t = create geom in
  Geometry.iter_sites geom (fun site ->
      for mu = 0 to Geometry.n_dim - 1 do
        set t site mu (Linalg.Su3.random_near_identity rng ~eps)
      done);
  t

let reunitarize t =
  let u = Linalg.Su3.zero () in
  Geometry.iter_sites t.geom (fun site ->
      for mu = 0 to Geometry.n_dim - 1 do
        get_into t site mu u;
        Linalg.Su3.reunitarize_in_place u;
        set t site mu u
      done)

(* Buffers the link kernels below reuse: a copied link (the right
   operand of a product; the left one is read in place), an inner
   product and the two staples (or plaquette halves) it feeds. *)
type scratch = {
  link : Linalg.Su3.t;
  inner : Linalg.Su3.t;
  fwd : Linalg.Su3.t;
  bwd : Linalg.Su3.t;
}

let scratch () =
  let z = Linalg.Su3.zero in
  { link = z (); inner = z (); fwd = z (); bwd = z () }

(* op(U_mu(site)) · op(b) into c, the link read where it is stored *)
let link_mul ?adj_a ?adj_b t site mu b c =
  Linalg.Su3.link_mul_into ?adj_a ?adj_b t.data (base t site mu) b c

(* The plaquette U_mu(x) U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag as its
   two halves: s.fwd = U_mu(x) U_nu(x+mu), s.bwd = U_mu(x+nu)^dag
   U_nu(x)^dag. *)
let plaquette_halves s t site mu nu =
  let g = t.geom in
  get_into t (Geometry.fwd g site mu) nu s.link;
  link_mul t site mu s.link s.fwd;
  get_into t site nu s.link;
  link_mul ~adj_a:true ~adj_b:true t (Geometry.fwd g site nu) mu s.link s.bwd

let plaquette t site mu nu =
  let s = scratch () in
  plaquette_halves s t site mu nu;
  Linalg.Su3.mul s.fwd s.bwd

(* Average plaquette normalized so that the cold (unit) configuration
   gives 1: <(1/3) Re Tr P>, each trace formed from the two halves
   without the product. *)
let average_plaquette t =
  let s = scratch () in
  let acc = ref 0. in
  let count = ref 0 in
  Geometry.iter_sites t.geom (fun site ->
      for mu = 0 to Geometry.n_dim - 2 do
        for nu = mu + 1 to Geometry.n_dim - 1 do
          plaquette_halves s t site mu nu;
          acc := !acc +. Linalg.Su3.re_trace_mul s.fwd s.bwd;
          incr count
        done
      done);
  !acc /. (3. *. float_of_int !count)

(* Wilson action S = beta * sum_p (1 - (1/3) Re Tr U_p). *)
let wilson_action t ~beta =
  let n_plaq = Geometry.volume t.geom * 6 in
  beta *. float_of_int n_plaq *. (1. -. average_plaquette t)

(* Staple sum A such that the link-local Wilson action is
   -(beta/3) Re Tr (U_mu(x) A). Six staples: for each nu <> mu, the
   forward staple U_nu(x+mu) U_mu(x+nu)^dag U_nu(x)^dag and the
   backward staple U_nu(x+mu-nu)^dag U_mu(x-nu)^dag U_nu(x-nu), added
   to A as A + (forward + backward). *)
let staple_into s t site mu (acc : Linalg.Su3.t) =
  let g = t.geom in
  Array.fill acc 0 link_floats 0.;
  for nu = 0 to Geometry.n_dim - 1 do
    if nu <> mu then begin
      let xpmu = Geometry.fwd g site mu and xmnu = Geometry.bwd g site nu in
      get_into t site nu s.link;
      link_mul ~adj_a:true ~adj_b:true t (Geometry.fwd g site nu) mu s.link s.inner;
      link_mul t xpmu nu s.inner s.fwd;
      get_into t xmnu nu s.link;
      link_mul ~adj_a:true t xmnu mu s.link s.inner;
      link_mul ~adj_a:true t (Geometry.bwd g xpmu nu) nu s.inner s.bwd;
      for i = 0 to link_floats - 1 do
        acc.(i) <- acc.(i) +. (s.fwd.(i) +. s.bwd.(i))
      done
    end
  done

let staple t site mu =
  let acc = Linalg.Su3.zero () in
  staple_into (scratch ()) t site mu acc;
  acc

(* Fermion antiperiodic boundary condition in time, implemented as a
   -1 phase on time links leaving the last time slice. Returns a fresh
   field; the Monte Carlo keeps the periodic original. *)
let with_antiperiodic_time t =
  let fresh = copy t in
  let g = t.geom in
  Geometry.iter_sites g (fun site ->
      if Geometry.crosses_boundary_fwd g site 3 then
        set fresh site 3 (Linalg.Su3.scale (-1.) (get fresh site 3)));
  fresh

(* Worst |U U^dag - 1| over the links; a non-finite distance (a NaN
   or infinite entry) reads as infinity, which no bound accepts. *)
let max_unitarity_violation t =
  let module M = Linalg.Su3 in
  let u = M.zero () and uu = M.zero () and one = M.id () in
  let worst = ref 0. in
  Geometry.iter_sites t.geom (fun site ->
      for mu = 0 to Geometry.n_dim - 1 do
        get_into t site mu u;
        link_mul ~adj_b:true t site mu u uu;
        let d = M.frobenius_dist uu one in
        let d = if Float.is_finite d then d else infinity in
        if d > !worst then worst := d
      done);
  !worst
