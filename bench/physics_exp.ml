(* Additional physics experiments beyond the paper's figures: the
   domain-wall quality observable (residual mass), the explicit cost
   comparison between the sequential-insertion (traditional) and FH
   methods, the meson spectrum with momentum, and the gradient flow —
   each a substrate the production program relies on. *)

module Geometry = Lattice.Geometry
module Gauge = Lattice.Gauge
module Ascii = Util.Ascii

let residual_mass () =
  Ascii.banner "Residual mass: chiral symmetry restoration as L5 grows";
  let geom = Geometry.create [| 4; 4; 4; 8 |] in
  let gauge = Gauge.warm geom (Util.Rng.create 55) ~eps:0.25 in
  let fgauge = Gauge.with_antiperiodic_time gauge in
  let rows =
    List.map
      (fun l5 ->
        let params = Dirac.Mobius.shamir ~l5 ~m5:1.4 ~mass:0.05 in
        let solver = Solver.Dwf_solve.create params geom fgauge in
        let prop =
          Physics.Propagator.point_propagator ~tol:1e-10 ~keep_midpoint:true
            solver ~src_site:0
        in
        (l5, Physics.Propagator.residual_mass prop))
      [ 4; 6; 8 ]
  in
  Ascii.print_table
    ~header:[ "L5"; "m_res" ]
    (List.map (fun (l5, m) -> [ string_of_int l5; Printf.sprintf "%.2e" m ]) rows);
  print_endline
    "m_res -> 0 with growing L5: the domain-wall walls decouple and chiral\n\
     symmetry is restored — the reason the paper pays for a 5th dimension.";
  rows

let sequential_cost () =
  Ascii.banner "FH vs sequential insertion: the exponential-improvement economics";
  let geom = Geometry.create [| 4; 4; 4; 8 |] in
  let gauge = Gauge.unit geom in
  let params = Dirac.Mobius.mobius ~l5:6 ~m5:1.3 ~alpha:1.5 ~mass:0.2 in
  let solver = Solver.Dwf_solve.create params geom (Gauge.with_antiperiodic_time gauge) in
  let t0 = Util.Clock.now_s () in
  let prop = Physics.Propagator.point_propagator ~tol:1e-9 solver ~src_site:0 in
  let t_prop = Util.Clock.now_s () -. t0 in
  let t1 = Util.Clock.now_s () in
  let _fh = Physics.Fh.fh_propagator ~tol:1e-9 solver prop in
  let t_fh = Util.Clock.now_s () -. t1 in
  let nt = Geometry.time_extent geom in
  let t2 = Util.Clock.now_s () in
  (* two representative sequential solves; the full traditional set
     needs one per insertion time *)
  let _s1 = Physics.Fh.sequential_propagator ~tol:1e-9 solver ~tau:2 prop in
  let _s2 = Physics.Fh.sequential_propagator ~tol:1e-9 solver ~tau:3 prop in
  let t_seq2 = Util.Clock.now_s () -. t2 in
  let t_seq_full = t_seq2 /. 2. *. float_of_int nt in
  Ascii.print_table
    ~header:[ "method"; "solves"; "wall (measured/projected)" ]
    [
      [ "base propagator"; "12"; Ascii.seconds t_prop ];
      [ "Feynman-Hellmann (all t)"; "12"; Ascii.seconds t_fh ];
      [ Printf.sprintf "sequential (all %d insertions)" nt;
        string_of_int (12 * nt);
        Ascii.seconds t_seq_full ^ " (projected)" ];
    ];
  Printf.printf
    "FH delivers every insertion time for ~1 extra solve per column;\n\
     the traditional estimator needs %dx that — before even counting its\n\
     exponentially worse signal-to-noise at the large t_sep it requires.\n"
    nt

let meson_spectrum () =
  Ascii.banner "Meson channels and the pion dispersion relation (free field)";
  let geom = Geometry.create [| 4; 4; 4; 16 |] in
  let gauge = Gauge.unit geom in
  let params = Dirac.Mobius.mobius ~l5:6 ~m5:1.3 ~alpha:1.5 ~mass:0.2 in
  let solver = Solver.Dwf_solve.create params geom (Gauge.with_antiperiodic_time gauge) in
  let prop = Physics.Propagator.point_propagator ~tol:1e-9 solver ~src_site:0 in
  Ascii.print_table
    ~header:[ "channel"; "m_eff(1)"; "m_eff(2)" ]
    (List.map
       (fun ch ->
         (* scalar/axial-temporal channels oscillate in sign at this
            quark mass; quote |C| effective masses *)
         let c = Array.map abs_float (Physics.Meson.correlator ch prop) in
         let m = Physics.Analysis.effective_mass c in
         [ ch.Physics.Meson.name; Printf.sprintf "%.4f" m.(1); Printf.sprintf "%.4f" m.(2) ])
       Physics.Meson.standard_channels);
  (* dispersion *)
  let e k =
    (Physics.Analysis.effective_mass (Physics.Meson.correlator ~k Physics.Meson.pion prop)).(2)
  in
  let m0 = e [| 0; 0; 0 |] in
  Ascii.print_table
    ~header:[ "momentum k"; "E(k) measured"; "E(k) lattice dispersion" ]
    (List.map
       (fun k ->
         [
           Printf.sprintf "(%d,%d,%d)" k.(0) k.(1) k.(2);
           Printf.sprintf "%.4f" (e k);
           Printf.sprintf "%.4f"
             (Physics.Meson.lattice_dispersion ~m:m0 ~k ~dims:(Geometry.dims geom));
         ])
       [ [| 0; 0; 0 |]; [| 1; 0; 0 |]; [| 1; 1; 0 |] ])

let gradient_flow () =
  Ascii.banner "Wilson gradient flow (field preparation, scale setting)";
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let rng = Util.Rng.create 77 in
  let u = Gauge.warm geom rng ~eps:0.6 in
  let _, hist = Lattice.Flow.flow ~eps:0.02 ~t_max:0.2 u in
  Ascii.print_table
    ~header:[ "flow time"; "plaquette"; "t^2 <E>" ]
    (List.filter_map
       (fun (h : Lattice.Flow.history) ->
         if Float.rem (h.Lattice.Flow.t +. 1e-9) 0.04 < 2e-2 then
           Some
             [
               Printf.sprintf "%.2f" h.Lattice.Flow.t;
               Printf.sprintf "%.5f" h.Lattice.Flow.plaquette;
               Printf.sprintf "%.4f" h.Lattice.Flow.t2e;
             ]
         else None)
       hist);
  Printf.printf
    "Wilson loops on the same configuration: W(1,1)=%.4f W(2,2)=%.4f;\n\
     Polyakov loop |P| = %.4f; topological charge Q = %.3f\n"
    (Lattice.Observables.average_wilson_loop u ~r:1 ~t:1)
    (Lattice.Observables.average_wilson_loop u ~r:2 ~t:2)
    (Linalg.Cplx.abs (Lattice.Observables.polyakov_loop u))
    (Lattice.Observables.topological_charge u)

let run () =
  ignore (residual_mass ());
  sequential_cost ();
  meson_spectrum ();
  gradient_flow ()
