module Field = Linalg.Field
module Geometry = Lattice.Geometry
module Gauge = Lattice.Gauge
module Heatbath = Lattice.Heatbath
module Mobius = Dirac.Mobius
module Wilson = Dirac.Wilson
module Cg = Solver.Cg
module Mixed = Solver.Mixed
module Deflate = Solver.Deflate
module Dwf_solve = Solver.Dwf_solve
module Propagator = Physics.Propagator
module Source = Physics.Source
module Fh = Physics.Fh
module H5lite = Qio.H5lite
module Comm = Vrank.Comm
module Rng = Util.Rng
module Pool = Util.Pool

type sizes = {
  campaign_dims : int array;
  l5 : int;
  n_thermalize : int;
  n_decorrelate : int;
  n_configs : int;
  mixed_dims : int array;
  mixed_sweeps : int;
  mixed_columns : int;
  batch_k : int;
  lanczos_rank : int;
  lanczos_restarts : int;
  dd_dims : int array;
  dd_solves : int;
  min_units : int;
}

(* 4³×8 keeps every campaign field under 0.5 MB, in cache; 8⁴ puts the
   mixed-precision and halo workloads' fields above one core's L2. The
   Lanczos build is capped at 4 thick restarts (48 applies): it has to
   be repeated three times for setup_s, and on this operator it does
   not converge in 60 restarts either. *)
let full =
  {
    campaign_dims = [| 4; 4; 4; 8 |];
    l5 = 4;
    n_thermalize = 10;
    n_decorrelate = 4;
    n_configs = 3;
    mixed_dims = [| 8; 8; 8; 8 |];
    mixed_sweeps = 4;
    mixed_columns = 6;
    batch_k = 12;
    lanczos_rank = 8;
    lanczos_restarts = 4;
    dd_dims = [| 8; 8; 8; 8 |];
    dd_solves = 10;
    min_units = 3;
  }

let toy =
  {
    campaign_dims = [| 4; 4; 4; 4 |];
    l5 = 2;
    n_thermalize = 1;
    n_decorrelate = 1;
    n_configs = 1;
    mixed_dims = [| 4; 4; 4; 4 |];
    mixed_sweeps = 1;
    mixed_columns = 2;
    batch_k = 2;
    lanczos_rank = 2;
    lanczos_restarts = 2;
    dd_dims = [| 4; 4; 4; 4 |];
    dd_solves = 2;
    min_units = 1;
  }

let beta = 5.7
let m5 = 1.8
let alpha = 1.5
let n_overrelax = 2

(* At m = 0.1 the CG count of a 4³×8 configuration moves by ±20 % from
   one seed's ensemble to the next; at m = 0.5 by about ±2 %, so a
   time per unit measures the code rather than the ensemble. *)
let mass = 0.5
let dd_mass = 0.1
let dd_grid = [| 2; 2; 2; 2 |]
let tol = 1e-8
let max_iter = 10_000

(* best_unit_s is the fastest timed unit of a run, not the median: on a
   shared host, other tenants slow the CPU by up to 40 % for seconds at
   a time, an additive noise the minimum is least sensitive to. *)
let end_to_end = [ ("setup_s", "s"); ("best_unit_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("heatbath.us_per_link", "us");
    ("schur.apply_ms", "ms");
    ("schur.applies", "count");
    ("schur.gflops", "Gflop/s");
    ("schur.gbs_computed", "GB/s");
    ("hop.eo_ms", "ms");
    ("hop.share", "ratio");
    ("schur.pool_speedup", "ratio");
    ("hop.pool_speedup", "ratio");
    ("schur_multi.rhs_ms", "ms");
    ("schur_multi.rhs_ratio", "ratio");
    ("cg.iters", "count");
    ("cg.tail_ms_per_iter", "ms");
    ("cg.apply_share", "ratio");
    ("cg.true_residual_max", "ratio");
    ("mixed.reliable_updates", "count");
    ("mixed.polish_iters", "count");
    ("mixed.tail_ms_per_iter", "ms");
    ("lanczos.applies", "count");
    ("lanczos.s", "s");
    ("lanczos.converged", "bool");
    ("deflate.iters_saved", "count");
    ("multi.tail_ms_per_iter", "ms");
    ("propagator.s", "s");
    ("fh.s", "s");
    ("contract.s", "s");
    ("analysis.s", "s");
    ("h5lite.s", "s");
    ("h5lite.bytes", "bytes");
    ("comm.messages_per_iter", "count");
    ("comm.bytes_per_iter", "bytes");
    ("comm.exchanges_per_iter", "count");
    ("dd.allreduces_per_iter", "count");
    ("comm.halo_exchange_ms", "ms");
    ("dd.hop_ms", "ms");
    ("dd.hop_ratio", "ratio");
    ("comm.share", "ratio");
    ("comm.races", "count");
    ("comm.corruptions", "count");
    ("pool.lanes", "count");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ratio");
    ("trace.solve_match", "bool");
  ]

(* ---- what a workload hands the runner ---- *)

type outcome = {
  seconds : float;  (** the timed part of the unit *)
  digest : string;  (** bitwise fingerprint of the unit's outputs *)
  checks : (string * bool) list;
}

type prepared = {
  fingerprint : string;  (** bitwise fingerprint of the setup's outputs *)
  unit : traced:bool -> int -> outcome;
  layers : setup:Trace.span list -> units:Trace.span list -> n_units:int -> (string * float) list;
      (** per-layer metrics from the traced units' spans, plus the
          microbenchmarks *)
}

(* The timed part of every unit sits in one "unit" span, so the checks
   that follow it count neither in the time nor in the coverage. *)
let timed f = Timing.time (fun () -> Trace.span "unit" f)

(* Streams split off the seed in a fixed order: campaign and
   mrhs_deflate derive the same gauge field and source site. *)
let streams seed =
  let root = Rng.create seed in
  let gauge = Rng.split root in
  let source = Rng.split root in
  let extra = Rng.split root in
  (gauge, source, extra)

let schedule sz =
  {
    Heatbath.beta;
    n_thermalize = sz.n_thermalize;
    n_decorrelate = sz.n_decorrelate;
    n_overrelax;
  }

let params sz = Mobius.mobius ~l5:sz.l5 ~m5 ~alpha ~mass

let hash_field f = string_of_int (Deflate.field_hash f)
let hash_floats a = hash_field (Field.of_array a)
let fingerprint parts = String.concat ":" parts
let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let ratio a b = if b > 0. then a /. b else 0.

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let solve_ok (st : Cg.stats) =
  st.Cg.converged
  && match st.Cg.true_relative_residual with Some r -> r <= 10. *. tol | None -> false

let true_residual (st : Cg.stats) =
  Option.value st.Cg.true_relative_residual ~default:infinity

let relative_diff ~got ~want =
  let d = Field.create (Field.length want) in
  Field.sub got want d;
  sqrt (Field.norm2 d /. Field.norm2 want)

(* ---- microbenchmarks ---- *)

let micro_calls = 20

let micro f =
  f ();
  Timing.median (Array.init micro_calls (fun _ -> snd (Timing.time f)))

(* Time at pool width 1 over time at width 2, same operands. *)
let pool_speedup f =
  let current = Pool.get_default () in
  let at width =
    Pool.set_default (Pool.shared ~domains:width);
    micro f
  in
  let t1 = at 1 in
  let t2 = at 2 in
  Pool.set_default current;
  t1 /. t2

(* ---- Möbius pieces shared by three workloads ---- *)

let n5_half (s : Dwf_solve.t) =
  float_of_int (s.Dwf_solve.params.Mobius.l5 * Geometry.half_volume s.Dwf_solve.geom)

let flops_per_apply s = n5_half s *. float_of_int Dirac.Flops.schur_normal_per_5d_site

(* Dwf_solve.solve rebuilt from the public pieces it calls, in the same
   order and with the same arguments, so that every stage and every
   operator apply is its own span. The result must be bitwise the
   untraced one; trace.solve_match reports whether it is. Returns the
   solution, the merged stats and the double-precision polish
   iterations. *)
let traced_solve ~precision (s : Dwf_solve.t) ~rhs =
  Trace.span "solve" @@ fun () ->
  let eo = s.Dwf_solve.eo and geom = s.Dwf_solve.geom in
  let l5 = s.Dwf_solve.params.Mobius.l5 in
  let rhs_even, rhs_odd = Trace.span "split_eo" (fun () -> Mobius.split_eo geom ~l5 rhs) in
  let y' = Trace.span "prepare_rhs" (fun () -> Mobius.prepare_rhs eo ~rhs_even ~rhs_odd) in
  let b =
    Trace.span "schur_dagger" (fun () ->
        let b = Mobius.create_eo_field eo in
        Mobius.apply_schur_dagger eo ~src:y' ~dst:b;
        b)
  in
  let apply src dst = Trace.span "schur_normal" (fun () -> Mobius.apply_schur_normal eo ~src ~dst) in
  let apply_dot src dst =
    Trace.span "schur_normal" (fun () ->
        Mobius.apply_schur_normal_tail eo ~src ~dst ~tail:(Linalg.Fused.tail ~dot:src ()))
  in
  let flops_per_apply = flops_per_apply s in
  let cg ?x0 () =
    Trace.span "cg" (fun () ->
        Cg.solve ?x0 ~fused:false ~apply ~apply_dot ~b ~tol ~max_iter ~flops_per_apply ())
  in
  let x_odd, stats, polish =
    match precision with
    | Dwf_solve.Double ->
      let x, st = cg () in
      (x, st, 0)
    | Dwf_solve.Mixed config ->
      let x, st =
        Trace.span "mixed" (fun () ->
            Mixed.solve ~config:{ config with Mixed.tol; max_iter } ~fused:false ~apply ~b
              ~flops_per_apply ())
      in
      if st.Cg.converged then (x, st, 0)
      else
        let x2, st2 = cg ~x0:x () in
        ( x2,
          {
            st2 with
            Cg.iterations = st.Cg.iterations + st2.Cg.iterations;
            reliable_updates = st.Cg.reliable_updates;
          },
          st2.Cg.iterations )
  in
  let x_even = Trace.span "reconstruct_even" (fun () -> Mobius.reconstruct_even eo ~rhs_even ~x_odd) in
  let x = Trace.span "merge_eo" (fun () -> Mobius.merge_eo geom ~l5 ~even:x_even ~odd:x_odd) in
  (x, stats, polish)

(* Propagator.compute with the composed solve: to_5d, solve, to_4d per
   column. *)
let traced_propagator (s : Dwf_solve.t) ~source =
  let geom = s.Dwf_solve.geom and l5 = s.Dwf_solve.params.Mobius.l5 in
  let stats = ref [] in
  let columns =
    Array.init 12 (fun idx ->
        let spin = idx / 3 and color = idx mod 3 in
        let rhs = Trace.span "source" (fun () -> Source.to_5d ~l5 geom (source ~spin ~color)) in
        let x5, st, _ = traced_solve ~precision:Dwf_solve.Double s ~rhs in
        stats := st :: !stats;
        Trace.span "source" (fun () -> Source.to_4d ~l5 geom x5))
  in
  { Propagator.geom; columns; midpoint = None; stats = List.rev !stats }

let schur_metrics s ~apply_s ~applies ~n_units =
  let per = ratio apply_s (float_of_int applies) in
  let n5 = n5_half s in
  [
    ("schur.apply_ms", per *. 1e3);
    ("schur.applies", float_of_int applies /. float_of_int n_units);
    ("schur.gflops", ratio (n5 *. float_of_int Dirac.Flops.schur_normal_per_5d_site) per *. 1e-9);
    ( "schur.gbs_computed",
      ratio (n5 *. 2. *. Dirac.Flops.actual_bytes_per_5d_site_double) per *. 1e-9 );
  ]

let solver_metrics stats ~self_s ~solver_s ~apply_s =
  let iters = List.fold_left (fun acc st -> acc + st.Cg.iterations) 0 stats in
  [
    ("cg.iters", float_of_int iters /. float_of_int (List.length stats));
    ("cg.tail_ms_per_iter", ratio self_s (float_of_int iters) *. 1e3);
    ("cg.apply_share", ratio apply_s solver_s);
    ("cg.true_residual_max", List.fold_left (fun acc st -> Float.max acc (true_residual st)) 0. stats);
  ]

(* hop_eo, and the width-1 / width-2 ratios, on the workload's operator
   with a seeded source. *)
let mobius_micro (s : Dwf_solve.t) ~rng ~schur_ms =
  let eo = s.Dwf_solve.eo in
  let src = Mobius.create_eo_field eo and dst = Mobius.create_eo_field eo in
  Field.gaussian rng src;
  let hop () = Mobius.hop_eo eo ~to_parity:1 ~src ~dst in
  let schur () = Mobius.apply_schur_normal eo ~src ~dst in
  let hop_ms = micro hop *. 1e3 in
  [
    ("hop.eo_ms", hop_ms);
    ("hop.share", ratio (4. *. hop_ms) schur_ms);
    ("schur.pool_speedup", pool_speedup schur);
    ("hop.pool_speedup", pool_speedup hop);
  ]

let heatbath_metric setup geom ~sweeps =
  let links = float_of_int (sweeps * Geometry.volume geom * 4 * (1 + n_overrelax)) in
  ("heatbath.us_per_link", Trace.total setup "heatbath" /. links *. 1e6)

(* ---- campaign: the paper's per-configuration measurement ---- *)

type config_out = {
  stats : Cg.stats list;
  correlators : (string * float array) list;
  columns : Field.t array;
  reloaded : H5lite.t;
}

(* The stages of Workflow.measure_config, in its order, plus the I/O
   and the analysis the workflow runs at the end of a campaign. *)
let measure_config ~traced ~params ~geom ~src_site ~h5_path g =
  let solver =
    Trace.span "dwf_create" (fun () ->
        Dwf_solve.create params geom (Gauge.with_antiperiodic_time g))
  in
  let prop =
    Trace.span "propagator" (fun () ->
        if traced then
          traced_propagator solver ~source:(fun ~spin ~color ->
              Source.point geom ~site:src_site ~spin ~color)
        else Propagator.point_propagator ~tol solver ~src_site)
  in
  let fh =
    Trace.span "fh" (fun () ->
        if traced then
          traced_propagator solver ~source:(fun ~spin ~color ->
              Source.apply_spin_matrix Fh.axial_matrix
                prop.Propagator.columns.(Propagator.column_index ~spin ~color))
        else Fh.fh_propagator ~tol solver prop)
  in
  let correlators =
    Trace.span "contract" (fun () ->
        let pion = Physics.Contract.pion prop in
        let proton = Physics.Contract.proton ~up:prop ~down:prop () in
        let proton_fh = Fh.fh_proton_correlator ~up:prop ~down:prop ~fh_up:fh ~fh_down:fh in
        [ ("pion", pion); ("proton", proton); ("proton_fh", proton_fh) ])
  in
  let reloaded =
    Trace.span "h5lite" (fun () ->
        let h5 = H5lite.create () in
        List.iter (fun (name, c) -> H5lite.write_correlator h5 ~path:("corr/" ^ name) c) correlators;
        Array.iteri
          (fun k col -> H5lite.write_field h5 ~path:(Printf.sprintf "prop/%d" k) col)
          prop.Propagator.columns;
        H5lite.save h5 h5_path;
        H5lite.load h5_path)
  in
  Trace.span "analysis" (fun () ->
      let c name = List.assoc name correlators in
      ignore (Physics.Analysis.effective_mass (c "pion") : float array);
      ignore (Fh.effective_coupling ~c2:(c "proton") ~c_fh:(c "proton_fh") : float array));
  {
    (* Fh.fh_propagator does not return its solves' stats *)
    stats = (if traced then prop.Propagator.stats @ fh.Propagator.stats else prop.Propagator.stats);
    correlators;
    columns = prop.Propagator.columns;
    reloaded;
  }

let campaign sz ~seed ~out_dir =
  let geom = Geometry.create sz.campaign_dims in
  let gauge_rng, source_rng, micro_rng = streams seed in
  let configs, _ =
    Trace.span "heatbath" (fun () ->
        Heatbath.generate gauge_rng (schedule sz) geom ~n_configs:sz.n_configs)
  in
  let src_site = Rng.int source_rng (Geometry.volume geom) in
  let params = params sz in
  let h5_path = Filename.concat out_dir (Printf.sprintf "campaign-%d.h5l" (Unix.getpid ())) in
  let traced_stats = ref [] and h5_bytes = ref 0 in
  let unit ~traced i =
    let out, seconds =
      timed (fun () ->
          measure_config ~traced ~params ~geom ~src_site ~h5_path configs.(i mod sz.n_configs))
    in
    h5_bytes := (Unix.stat h5_path).Unix.st_size;
    Sys.remove h5_path;
    if traced then traced_stats := out.stats @ !traced_stats;
    let all_correlators f = List.for_all (fun (_, c) -> Array.for_all f c) out.correlators in
    let reloaded_same =
      List.for_all
        (fun (name, c) ->
          match H5lite.read_correlator out.reloaded ~path:("corr/" ^ name) with
          | Some c' -> same_bits c c'
          | None -> false)
        out.correlators
      && Array.for_all Fun.id
           (Array.mapi
              (fun k col ->
                match H5lite.read_field out.reloaded ~path:(Printf.sprintf "prop/%d" k) with
                | Some col' -> same_bits (Field.to_array col) (Field.to_array col')
                | None -> false)
              out.columns)
    in
    {
      seconds;
      digest = fingerprint (List.map (fun (_, c) -> hash_floats c) out.correlators);
      checks =
        [
          ("solves_converged", List.for_all solve_ok out.stats);
          ("correlators_finite", all_correlators Float.is_finite);
          ("pion_positive", Array.for_all (fun x -> x > 0.) (List.assoc "pion" out.correlators));
          ("h5lite_roundtrip", reloaded_same);
        ];
    }
  in
  let layers ~setup ~units ~n_units =
    let solver = Dwf_solve.create params geom (Gauge.with_antiperiodic_time configs.(0)) in
    let apply_s = Trace.total units "schur_normal" in
    let schur = schur_metrics solver ~apply_s ~applies:(Trace.count units "schur_normal") ~n_units in
    let per_config name = (name ^ ".s", Trace.total units name /. float_of_int n_units) in
    (heatbath_metric setup geom ~sweeps:(sz.n_thermalize + (sz.n_configs * sz.n_decorrelate))
     :: schur)
    @ solver_metrics !traced_stats ~self_s:(Trace.self_total units "cg")
        ~solver_s:(Trace.total units "cg") ~apply_s
    @ List.map per_config [ "propagator"; "fh"; "contract"; "analysis"; "h5lite" ]
    @ [ ("h5lite.bytes", float_of_int !h5_bytes) ]
    @ mobius_micro solver ~rng:micro_rng
        ~schur_ms:(List.assoc "schur.apply_ms" schur)
  in
  {
    fingerprint =
      fingerprint
        (string_of_int src_site
        :: Array.to_list (Array.map (fun g -> string_of_int (Deflate.gauge_hash g)) configs));
    unit;
    layers;
  }

(* ---- mixed_pooled: the production double-half solver on all cores ---- *)

let mixed_pooled sz ~seed ~out_dir:_ =
  let geom = Geometry.create sz.mixed_dims in
  let gauge_rng, source_rng, micro_rng = streams seed in
  let configs, _ =
    Trace.span "heatbath" (fun () ->
        Heatbath.generate gauge_rng
          { (schedule sz) with Heatbath.n_thermalize = sz.mixed_sweeps; n_decorrelate = 0 }
          geom ~n_configs:1)
  in
  let solver =
    Trace.span "dwf_create" (fun () ->
        Dwf_solve.create (params sz) geom (Gauge.with_antiperiodic_time configs.(0)))
  in
  let site = Rng.int source_rng (Geometry.volume geom) in
  let rhs =
    Array.init sz.mixed_columns (fun c ->
        Source.to_5d ~l5:sz.l5 geom (Source.point geom ~site ~spin:(c mod 4) ~color:(c mod 3)))
  in
  let precision = Dwf_solve.Mixed Mixed.default_config in
  let traced_stats = ref [] in
  let unit ~traced i =
    let rhs = rhs.(i mod sz.mixed_columns) in
    let (x, st, polish), seconds =
      timed (fun () ->
          if traced then traced_solve ~precision solver ~rhs
          else
            let x, st = Dwf_solve.solve ~precision ~tol solver ~rhs in
            (x, st, 0))
    in
    if traced then traced_stats := (st, polish) :: !traced_stats;
    {
      seconds;
      digest = hash_field x;
      checks =
        [
          ("solves_converged", solve_ok st);
          ("dwf_residual", Dwf_solve.residual solver ~x ~rhs <= 10. *. tol);
        ];
    }
  in
  let layers ~setup ~units ~n_units =
    let stats = List.map fst !traced_stats in
    let polish = float_of_int (List.fold_left (fun acc (_, p) -> acc + p) 0 !traced_stats) in
    let iters = float_of_int (List.fold_left (fun acc st -> acc + st.Cg.iterations) 0 stats) in
    let n = float_of_int (List.length stats) in
    let apply_s = Trace.total units "schur_normal" in
    let schur = schur_metrics solver ~apply_s ~applies:(Trace.count units "schur_normal") ~n_units in
    let mixed_self = Trace.self_total units "mixed" in
    (heatbath_metric setup geom ~sweeps:sz.mixed_sweeps :: schur)
    @ solver_metrics stats
        ~self_s:(mixed_self +. Trace.self_total units "cg")
        ~solver_s:(Trace.total units "mixed" +. Trace.total units "cg")
        ~apply_s
    @ [
        ("mixed.reliable_updates", fsum (fun st -> float_of_int st.Cg.reliable_updates) stats /. n);
        ("mixed.polish_iters", polish /. n);
        ("mixed.tail_ms_per_iter", ratio mixed_self (iters -. polish) *. 1e3);
      ]
    @ mobius_micro solver ~rng:micro_rng
        ~schur_ms:(List.assoc "schur.apply_ms" schur)
  in
  {
    fingerprint =
      fingerprint
        (string_of_int (Deflate.gauge_hash configs.(0)) :: Array.to_list (Array.map hash_field rhs));
    unit;
    layers;
  }

(* ---- mrhs_deflate: campaign's operator through the batched, deflated
   path ---- *)

let mrhs_deflate sz ~seed ~out_dir:_ =
  let geom = Geometry.create sz.campaign_dims in
  let gauge_rng, source_rng, lanczos_rng = streams seed in
  let configs, _ =
    Trace.span "heatbath" (fun () -> Heatbath.generate gauge_rng (schedule sz) geom ~n_configs:1)
  in
  let src_site = Rng.int source_rng (Geometry.volume geom) in
  let fermion = Gauge.with_antiperiodic_time configs.(0) in
  let solver = Trace.span "dwf_create" (fun () -> Dwf_solve.create (params sz) geom fermion) in
  let eo = solver.Dwf_solve.eo in
  let ((values, _, lanczos_stats) as lanczos) =
    Trace.span "lanczos" (fun () ->
        Solver.Lanczos.lowest ~max_restarts:sz.lanczos_restarts ~rank:sz.lanczos_rank
          ~apply:(fun src dst -> Mobius.apply_schur_normal eo ~src ~dst)
          ~n:(Mobius.eo_field_length eo) ~rng:lanczos_rng ())
  in
  let deflate =
    Trace.span "deflate" (fun () ->
        Deflate.of_lanczos ~config_hash:(Deflate.gauge_hash fermion) lanczos)
  in
  let rhs =
    Array.init sz.batch_k (fun idx ->
        Source.to_5d ~l5:sz.l5 geom
          (Source.point geom ~site:src_site ~spin:(idx / 3) ~color:(idx mod 3)))
  in
  (* the Schur-system right-hand side, prepared as Dwf_solve.solve does *)
  let prepare rhs =
    let rhs_even, rhs_odd = Mobius.split_eo geom ~l5:sz.l5 rhs in
    let y' = Mobius.prepare_rhs eo ~rhs_even ~rhs_odd in
    let b = Mobius.create_eo_field eo in
    Mobius.apply_schur_dagger eo ~src:y' ~dst:b;
    b
  in
  let flops_per_apply = flops_per_apply solver in
  let traced_stats = ref [] and rhs_applies = ref 0 and last_bs = ref [||] in
  let unit ~traced _ =
    let apply srcs dsts =
      Trace.span "schur_normal_multi" (fun () ->
          if traced then rhs_applies := !rhs_applies + Array.length srcs;
          Mobius.apply_schur_normal_multi eo ~srcs ~dsts)
    in
    let (bs, xs, stats), seconds =
      timed (fun () ->
          let bs = Trace.span "prepare" (fun () -> Array.map prepare rhs) in
          let xs, stats =
            Trace.span "cg_multi" (fun () ->
                Cg.solve_multi ~deflate ~fused:true ~apply ~bs ~tol ~max_iter ~flops_per_apply ())
          in
          (bs, xs, stats))
    in
    if traced then begin
      traced_stats := Array.to_list stats @ !traced_stats;
      last_bs := bs
    end;
    let normal_residual x b =
      let ax = Mobius.create_eo_field eo in
      Mobius.apply_schur_normal eo ~src:x ~dst:ax;
      relative_diff ~got:ax ~want:b
    in
    {
      seconds;
      digest = fingerprint (Array.to_list (Array.map hash_field xs));
      checks =
        [
          ("solves_converged", Array.for_all solve_ok stats);
          ("normal_residual", Array.for_all2 (fun x b -> normal_residual x b <= 10. *. tol) xs bs);
        ];
    }
  in
  let layers ~setup ~units ~n_units =
    let stats = !traced_stats in
    let iters = float_of_int (List.fold_left (fun acc st -> acc + st.Cg.iterations) 0 stats) in
    let apply_s = Trace.total units "schur_normal_multi" in
    let schur = schur_metrics solver ~apply_s ~applies:!rhs_applies ~n_units in
    let tail_ms = ratio (Trace.self_total units "cg_multi") iters *. 1e3 in
    let bs = !last_bs in
    let _, plain =
      Cg.solve_multi ~fused:true
        ~apply:(fun srcs dsts -> Mobius.apply_schur_normal_multi eo ~srcs ~dsts)
        ~bs ~tol ~max_iter ~flops_per_apply ()
    in
    let mean_iters sts =
      fsum (fun st -> float_of_int st.Cg.iterations) sts /. float_of_int (List.length sts)
    in
    let dsts = Array.map (fun _ -> Mobius.create_eo_field eo) bs in
    let single_ms =
      micro (fun () -> Mobius.apply_schur_normal eo ~src:bs.(0) ~dst:dsts.(0)) *. 1e3
    in
    let multi_ms =
      micro (fun () -> Mobius.apply_schur_normal_multi eo ~srcs:bs ~dsts) *. 1e3
      /. float_of_int (Array.length bs)
    in
    (heatbath_metric setup geom ~sweeps:(sz.n_thermalize + sz.n_decorrelate) :: schur)
    @ solver_metrics stats ~self_s:(Trace.self_total units "cg_multi")
        ~solver_s:(Trace.total units "cg_multi") ~apply_s
    @ [
        ("lanczos.applies", float_of_int lanczos_stats.Solver.Lanczos.applies);
        ("lanczos.s", Trace.total setup "lanczos");
        ("lanczos.converged", if lanczos_stats.Solver.Lanczos.converged then 1. else 0.);
        ("deflate.iters_saved", mean_iters (Array.to_list plain) -. mean_iters stats);
        ("multi.tail_ms_per_iter", tail_ms);
        ("schur_multi.rhs_ms", multi_ms);
        ("schur_multi.rhs_ratio", multi_ms /. single_ms);
      ]
    @ mobius_micro solver ~rng:lanczos_rng
        ~schur_ms:(List.assoc "schur.apply_ms" schur)
  in
  {
    fingerprint =
      fingerprint
        (string_of_int (Deflate.gauge_hash fermion)
        :: string_of_int src_site
        :: Array.to_list (Array.map (fun v -> Int64.to_string (Int64.bits_of_float v)) values));
    unit;
    layers;
  }

(* ---- dd_halo: distributed CG over virtual ranks ---- *)

let dd_halo sz ~seed ~out_dir:_ =
  let geom = Geometry.create sz.dd_dims in
  let gauge_rng, source_rng, _ = streams seed in
  let gauge = Gauge.warm geom gauge_rng ~eps:0.3 in
  let dom = Lattice.Domain.create geom dd_grid in
  let dd = Trace.span "dd_create" (fun () -> Vrank.Dd_wilson.create ~transport:Comm.Staged dom gauge) in
  let solver = Vrank.Dd_solve.create dd ~mass:dd_mass in
  let comm = Vrank.Dd_wilson.comm dd in
  let rhs =
    Array.init sz.dd_solves (fun _ ->
        let b = Field.create (Geometry.volume geom * Wilson.floats_per_site) in
        Field.gaussian source_rng b;
        b)
  in
  (* single-domain oracle for the residual gate, built outside the
     timed setup *)
  let oracle = lazy (Wilson.of_geometry geom gauge) in
  let normal_residual ~x ~b =
    let w = Lazy.force oracle in
    let n = Field.length b in
    let mx = Field.create n and mdmx = Field.create n and mdb = Field.create n in
    Wilson.apply w ~mass:dd_mass ~src:x ~dst:mx;
    Wilson.apply_dagger w ~mass:dd_mass ~src:mx ~dst:mdmx;
    Wilson.apply_dagger w ~mass:dd_mass ~src:b ~dst:mdb;
    relative_diff ~got:mdmx ~want:mdb
  in
  let last_exchanges = ref 0 and last_allreduces = ref 0 in
  (* traced totals: iterations, messages, bytes, exchanges, allreduces,
     worst residual *)
  let iters = ref 0 and messages = ref 0 and bytes = ref 0. and exchanges = ref 0 in
  let allreduces = ref 0 and worst = ref 0. in
  let unit ~traced i =
    let b = rhs.(i mod sz.dd_solves) in
    let messages0 = (Comm.stats comm).Comm.messages and bytes0 = (Comm.stats comm).Comm.bytes in
    let (x, st, `Exchanges ex, `Allreduces ar), seconds =
      timed (fun () ->
          Trace.span "dd_solve" (fun () -> Vrank.Dd_solve.solve_normal ~tol ~max_iter:5000 solver ~b_global:b))
    in
    let residual = normal_residual ~x ~b in
    if traced then begin
      iters := !iters + st.Cg.iterations;
      messages := !messages + (Comm.stats comm).Comm.messages - messages0;
      bytes := !bytes +. (Comm.stats comm).Comm.bytes -. bytes0;
      exchanges := !exchanges + ex - !last_exchanges;
      allreduces := !allreduces + ar - !last_allreduces;
      worst := Float.max !worst residual
    end;
    last_exchanges := ex;
    last_allreduces := ar;
    let s = Comm.stats comm in
    {
      seconds;
      digest = hash_field x;
      checks =
        [
          ("solves_converged", st.Cg.converged);
          ("dd_residual", residual <= 10. *. tol);
          ("halo_clean", s.Comm.send_buffer_races = 0 && s.Comm.corruptions = 0);
        ];
    }
  in
  let layers ~setup:_ ~units ~n_units =
    let s = Comm.stats comm in
    let races = float_of_int s.Comm.send_buffer_races in
    let corruptions = float_of_int s.Comm.corruptions in
    let n_iters = float_of_int !iters in
    let per_iter x = x /. n_iters in
    let iter_ms = per_iter (Trace.total units "dd_solve") *. 1e3 in
    let fields = Comm.create_fields comm in
    Comm.scatter comm rhs.(0) fields;
    let halo_ms = micro (fun () -> Comm.halo_exchange comm fields) *. 1e3 in
    let dsts =
      Array.init (Lattice.Domain.n_ranks dom) (fun r ->
          Field.create
            ((Lattice.Domain.rank_geometry dom r).Lattice.Domain.local_volume
            * Wilson.floats_per_site))
    in
    let dd_hop_ms = micro (fun () -> Vrank.Dd_wilson.hop_overlapped dd ~fields ~dsts) *. 1e3 in
    let w = Lazy.force oracle in
    let dst = Field.create (Field.length rhs.(0)) in
    let hop_ms = micro (fun () -> Wilson.hop w ~src:rhs.(0) ~dst) *. 1e3 in
    let exchanges_per_iter = per_iter (float_of_int !exchanges) in
    (* Dd_solve applies M†M internally: two overlapped hops per
       iteration, the rest is its BLAS-1 and diagonal terms *)
    [
      ("cg.iters", n_iters /. float_of_int n_units);
      ("cg.tail_ms_per_iter", iter_ms -. (2. *. dd_hop_ms));
      ("cg.apply_share", 2. *. dd_hop_ms /. iter_ms);
      ("cg.true_residual_max", !worst);
      ("comm.messages_per_iter", per_iter (float_of_int !messages));
      ("comm.bytes_per_iter", per_iter !bytes);
      ("comm.exchanges_per_iter", exchanges_per_iter);
      ("dd.allreduces_per_iter", per_iter (float_of_int !allreduces));
      ("comm.halo_exchange_ms", halo_ms);
      ("dd.hop_ms", dd_hop_ms);
      ("dd.hop_ratio", dd_hop_ms /. hop_ms);
      ("comm.share", halo_ms *. exchanges_per_iter /. iter_ms);
      ("comm.races", races);
      ("comm.corruptions", corruptions);
    ]
  in
  {
    fingerprint =
      fingerprint (string_of_int (Deflate.gauge_hash gauge) :: Array.to_list (Array.map hash_field rhs));
    unit;
    layers;
  }

(* ---- runner ---- *)

let table =
  [
    ("campaign", (1, campaign));
    ("mixed_pooled", (2, mixed_pooled));
    ("mrhs_deflate", (1, mrhs_deflate));
    ("dd_halo", (1, dd_halo));
  ]

let names = List.map fst table

type result = {
  workload : string;
  lanes : int;
  attempted : int;
  failed : int;
  gates : (string * int * int) list;
  metrics : (string * float * string) list;
  samples : (string * float array) list;
}

let peak_rss_mb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024. /. 1e6)

(* Run [step i] for i = 0, 1, ... until [min_units] have run and the
   next one, at the median step time so far, would end after
   [seconds]. *)
let closed_loop ~seconds ~min_units step =
  let t0 = Timing.now () in
  let walls = ref [] and i = ref 0 in
  while
    !i < min_units
    || Timing.now () -. t0 +. Timing.median (Array.of_list !walls) <= seconds
  do
    let (), wall = Timing.time (fun () -> step !i) in
    walls := wall :: !walls;
    incr i
  done

let select registry values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name registry) then invalid_arg ("unregistered metric " ^ name))
    values;
  List.map
    (fun (name, unit) -> (name, Option.value (List.assoc_opt name values) ~default:0., unit))
    registry

let run sz ~workload ~seed ~seconds ~trace ~out_dir =
  let lanes, setup =
    match List.assoc_opt workload table with
    | Some w -> w
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  let lanes = min lanes (Domain.recommended_domain_count ()) in
  Pool.set_default (Pool.shared ~domains:lanes);
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* gate -> (passed, failed), in first-seen order *)
  let gates = ref [] and attempted = ref 0 and failed = ref 0 in
  let record checks =
    incr attempted;
    if not (List.for_all snd checks) then incr failed;
    List.iter
      (fun (name, ok) ->
        let bump (p, f) = if ok then (p + 1, f) else (p, f + 1) in
        if List.mem_assoc name !gates then
          gates := List.map (fun (n, c) -> if n = name then (n, bump c) else (n, c)) !gates
        else gates := !gates @ [ (name, bump (0, 0)) ])
      checks
  in
  (* each setup and unit starts on a collected heap, so the previous
     one's garbage costs neither time nor peak memory here *)
  let run_unit p ~traced i =
    Gc.full_major ();
    let o = p.unit ~traced i in
    record o.checks;
    o
  in
  let untraced () =
    let fingerprints = ref [] and setup_times = ref [] and last = ref None in
    for _ = 1 to 3 do
      last := None;
      Gc.full_major ();
      let p, dt = Timing.time (fun () -> setup sz ~seed ~out_dir) in
      fingerprints := p.fingerprint :: !fingerprints;
      setup_times := dt :: !setup_times;
      last := Some p
    done;
    record [ ("setup_identical", List.for_all (String.equal (List.hd !fingerprints)) !fingerprints) ];
    let p = Option.get !last in
    let unit_times = ref [] in
    closed_loop ~seconds ~min_units:sz.min_units (fun i ->
        unit_times := (run_unit p ~traced:false i).seconds :: !unit_times);
    let setup_times = Array.of_list (List.rev !setup_times) in
    let unit_times = Array.of_list (List.rev !unit_times) in
    ( select end_to_end
        [
          ("setup_s", Timing.median setup_times);
          ("best_unit_s", Array.fold_left Float.min infinity unit_times);
          ("peak_rss_mb", peak_rss_mb ());
        ],
      [ ("setup_s", setup_times); ("best_unit_s", unit_times) ] )
  in
  let traced () =
    Trace.reset ();
    Trace.enabled := true;
    let m0 = Trace.mark () in
    let p = Trace.span "setup" (fun () -> setup sz ~seed ~out_dir) in
    let setup_spans = Trace.since m0 in
    let m1 = Trace.mark () in
    let plain = ref [] and traced = ref [] and matched = ref true in
    closed_loop ~seconds ~min_units:1 (fun i ->
        Trace.enabled := false;
        let a = run_unit p ~traced:false i in
        Trace.enabled := true;
        let b = run_unit p ~traced:true i in
        plain := a.seconds :: !plain;
        traced := b.seconds :: !traced;
        matched := !matched && String.equal a.digest b.digest);
    Trace.enabled := false;
    let units = Trace.since m1 in
    let layers = p.layers ~setup:setup_spans ~units ~n_units:(List.length !traced) in
    Trace.write_jsonl (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed));
    let median l = Timing.median (Array.of_list l) in
    ( select per_layer
        (layers
        @ [
            ("pool.lanes", float_of_int (Pool.size (Pool.get_default ())));
            ("trace.coverage", Trace.coverage units "unit");
            ("trace.overhead", (median !traced /. median !plain) -. 1.);
            ("trace.solve_match", if !matched then 1. else 0.);
          ]),
      [] )
  in
  let metrics, samples =
    Fun.protect ~finally:Pool.shutdown_shared (if trace then traced else untraced)
  in
  {
    workload;
    lanes;
    attempted = !attempted;
    failed = !failed;
    gates = List.map (fun (name, (p, f)) -> (name, p, f)) !gates;
    metrics;
    samples;
  }
