(* Sources and the 4D <-> 5D domain-wall boundary maps.

   The physical 4D quark field lives on the walls of the fifth
   dimension: with gamma5 = diag(1,1,-1,-1) (P+ keeps spins 0,1),

     source   B(x,s) = delta_{s,0} P+ eta(x) + delta_{s,L5-1} P- eta(x)
     sink     q(x)   = P- psi(x,0) + P+ psi(x,L5-1)                  *)

module Field = Linalg.Field
module Geometry = Lattice.Geometry

let fps = Dirac.Gamma.floats_per_site

(* A spin or colour out of range would address a neighbouring
   component, a time slice out of range give an empty source; a bad
   site already fails the Bigarray bounds check. *)
let in_range fn what v hi =
  if v < 0 || v >= hi then
    invalid_arg (Printf.sprintf "%s: %s %d outside [0, %d)" fn what v hi)

(* A field of another length would be read as another layout: a longer
   5D field's slice L5-1 is not its last, a short one's tail is lost. *)
let check_length fn (v : Field.t) len =
  if Field.length v <> len then
    invalid_arg
      (Printf.sprintf "%s: field of %d floats, expected %d" fn (Field.length v)
         len)

let point geom ~site ~spin ~color =
  in_range "Source.point" "spin" spin 4;
  in_range "Source.point" "color" color 3;
  let v = Field.create (Geometry.volume geom * fps) in
  Bigarray.Array1.set v ((site * fps) + (((spin * 3) + color) * 2)) 1.;
  v

let wall geom ~t ~spin ~color =
  in_range "Source.wall" "spin" spin 4;
  in_range "Source.wall" "color" color 3;
  in_range "Source.wall" "t" t (Geometry.time_extent geom);
  let v = Field.create (Geometry.volume geom * fps) in
  Geometry.iter_sites geom (fun site ->
      if (Geometry.coords geom site).(3) = t then
        Bigarray.Array1.set v ((site * fps) + (((spin * 3) + color) * 2)) 1.);
  v

(* Gaussian random noise source on one timeslice (stochastic methods). *)
let noise geom rng ~t =
  in_range "Source.noise" "t" t (Geometry.time_extent geom);
  let v = Field.create (Geometry.volume geom * fps) in
  Geometry.iter_sites geom (fun site ->
      if (Geometry.coords geom site).(3) = t then
        for k = 0 to fps - 1 do
          Bigarray.Array1.set v ((site * fps) + k) (Util.Rng.gaussian rng)
        done);
  v

(* 4D source -> 5D domain-wall source. *)
let to_5d ~l5 geom (eta : Field.t) : Field.t =
  let vol = Geometry.volume geom in
  check_length "Source.to_5d" eta (vol * fps);
  let b = Field.create (l5 * vol * fps) in
  let last = (l5 - 1) * vol * fps in
  for site = 0 to vol - 1 do
    let o = site * fps in
    (* P+ part (spins 0,1) on slice 0 *)
    for k = 0 to 11 do
      Bigarray.Array1.set b (o + k) (Bigarray.Array1.get eta (o + k))
    done;
    (* P- part (spins 2,3) on slice l5-1 *)
    for k = 12 to 23 do
      Bigarray.Array1.set b (last + o + k) (Bigarray.Array1.get eta (o + k))
    done
  done;
  b

(* 5D solution -> 4D quark field at the walls. *)
let to_4d ~l5 geom (psi : Field.t) : Field.t =
  let vol = Geometry.volume geom in
  check_length "Source.to_4d" psi (l5 * vol * fps);
  let q = Field.create (vol * fps) in
  let last = (l5 - 1) * vol * fps in
  for site = 0 to vol - 1 do
    let o = site * fps in
    (* P- psi(0): spins 2,3 of slice 0 *)
    for k = 12 to 23 do
      Bigarray.Array1.set q (o + k) (Bigarray.Array1.get psi (o + k))
    done;
    (* P+ psi(l5-1): spins 0,1 of the last slice *)
    for k = 0 to 11 do
      Bigarray.Array1.set q (o + k) (Bigarray.Array1.get psi (last + o + k))
    done
  done;
  q

(* Apply a 4x4 spin matrix to a 4D field (sequential/FH sources). *)
let apply_spin_matrix (m : Linalg.Cplx.t array array) (src : Field.t) : Field.t =
  let n_sites = Field.length src / fps in
  check_length "Source.apply_spin_matrix" src (n_sites * fps);
  let dst = Field.create (Field.length src) in
  for site = 0 to n_sites - 1 do
    let base = site * fps in
    for s = 0 to 3 do
      for c = 0 to 2 do
        let re = ref 0. and im = ref 0. in
        for s' = 0 to 3 do
          let g = m.(s).(s') in
          if g.Linalg.Cplx.re <> 0. || g.Linalg.Cplx.im <> 0. then begin
            let o = base + (((s' * 3) + c) * 2) in
            let xr = Bigarray.Array1.get src o in
            let xi = Bigarray.Array1.get src (o + 1) in
            re := !re +. ((g.Linalg.Cplx.re *. xr) -. (g.Linalg.Cplx.im *. xi));
            im := !im +. ((g.Linalg.Cplx.re *. xi) +. (g.Linalg.Cplx.im *. xr))
          end
        done;
        let o = base + (((s * 3) + c) * 2) in
        Bigarray.Array1.set dst o !re;
        Bigarray.Array1.set dst (o + 1) !im
      done
    done
  done;
  dst
