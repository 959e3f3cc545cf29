(* Batched multi-RHS engine: bit-identity of the whole block path —
   Wilson.hop_multi vs k independent hops, the Multi_blas batch
   kernels vs the single-vector Fused kernels, Cg.solve_multi's
   masked trajectories vs k independent solves (early-converging RHS
   included), the Mobius batched Schur chain — plus the batch-width
   tuner-signature regression, the Perf_model amortized-traffic
   formulas and the multi-RHS plan catalog entries. Everything here
   checks EXACT float equality: the batch must be a pure traffic
   optimization, never a numerical one. *)

module Field = Linalg.Field
module Fused = Linalg.Fused
module Multi = Linalg.Multi_blas
module Wilson = Dirac.Wilson
module Mobius = Dirac.Mobius
module Gauge = Lattice.Gauge
module Cg = Solver.Cg

let rng () = Util.Rng.create 20260808

let check_bits name (a : Field.t) (b : Field.t) =
  Alcotest.(check (float 0.)) name 0. (Field.max_abs_diff a b)

let check_floats name (a : float array) (b : float array) =
  Alcotest.(check (array (float 0.))) name a b

(* ---------- Multi_blas vs Fused singles ---------- *)

let batch_of r k n = Array.init k (fun _ ->
    let v = Field.create n in
    Field.gaussian r v;
    v)

let copies vs = Array.map Field.copy vs

let test_multi_blas_matches_fused () =
  let r = rng () in
  let n = 24 * 512 in
  List.iter
    (fun k ->
      let alphas = Array.init k (fun i -> 1e-3 *. float_of_int (i + 1)) in
      let ps = batch_of r k n and aps = batch_of r k n in
      let xs = batch_of r k n and rs = batch_of r k n in
      (* cg_update: batch vs per-RHS Fused *)
      let xs2 = copies xs and rs2 = copies rs in
      let r2s = Multi.cg_update alphas ps aps xs rs in
      let r2s' =
        Array.init k (fun i -> Fused.cg_update alphas.(i) ps.(i) aps.(i) xs2.(i) rs2.(i))
      in
      check_floats (Printf.sprintf "cg_update |r|2 k=%d" k) r2s' r2s;
      Array.iteri (fun i x -> check_bits "cg_update x" x xs.(i)) xs2;
      Array.iteri (fun i rr -> check_bits "cg_update r" rr rs.(i)) rs2;
      (* xpay_dot with the q = x read/read repetition Cg uses *)
      let ps1 = copies ps and ps2 = copies ps in
      let betas = Array.init k (fun i -> 0.25 +. (0.125 *. float_of_int i)) in
      let prs = Multi.xpay_dot rs betas ps1 rs in
      let prs' =
        Array.init k (fun i -> Fused.xpay_dot rs.(i) betas.(i) ps2.(i) rs.(i))
      in
      check_floats (Printf.sprintf "xpay_dot p.r k=%d" k) prs' prs;
      Array.iteri (fun i p -> check_bits "xpay_dot p" p ps1.(i)) ps2;
      (* axpy_norm2 *)
      let ys1 = copies xs and ys2 = copies xs in
      let n2s = Multi.axpy_norm2 alphas aps ys1 in
      let n2s' =
        Array.init k (fun i -> Fused.axpy_norm2 alphas.(i) aps.(i) ys2.(i))
      in
      check_floats (Printf.sprintf "axpy_norm2 k=%d" k) n2s' n2s;
      Array.iteri (fun i y -> check_bits "axpy_norm2 y" y ys1.(i)) ys2)
    [ 1; 2; 3; 8 ]

let test_multi_blas_pooled_matches_serial () =
  let r = rng () in
  let n = 24 * 1024 and k = 4 in
  let alphas = Array.init k (fun i -> 1e-3 *. float_of_int (i + 1)) in
  let ps = batch_of r k n and aps = batch_of r k n in
  let xs = batch_of r k n and rs = batch_of r k n in
  let pool = Util.Pool.shared ~domains:4 in
  List.iter
    (fun chunk ->
      let xs1 = copies xs and rs1 = copies rs in
      let xs2 = copies xs and rs2 = copies rs in
      let a = Multi.cg_update alphas ps aps xs1 rs1 in
      let b = Multi.cg_update ~pool ~chunk alphas ps aps xs2 rs2 in
      check_floats (Printf.sprintf "pooled |r|2 chunk=%d" chunk) a b;
      Array.iteri (fun i x -> check_bits "pooled x" x xs2.(i)) xs1;
      Array.iteri (fun i rr -> check_bits "pooled r" rr rs2.(i)) rs1)
    [ 512; 2048; 4096; 16384 ]

let test_block_axpy_matches_sequential () =
  let r = rng () in
  let n = 24 * 256 in
  let kx = 3 and ky = 2 in
  let a =
    Array.init ky (fun i ->
        Array.init kx (fun j -> 1e-2 *. float_of_int ((i * kx) + j + 1)))
  in
  let xs = batch_of r kx n in
  let ys = batch_of r ky n in
  let ys2 = copies ys in
  Multi.block_axpy a xs ys;
  (* reference: the naive per-(i,j) axpy sequence would accumulate in
     a different order per element, so the reference is the same
     j-ascending per-element accumulation done one float at a time *)
  Array.iteri
    (fun i y ->
      let acc = Field.to_array y in
      let xarrs = Array.map Field.to_array xs in
      for e = 0 to n - 1 do
        let s = ref acc.(e) in
        for j = 0 to kx - 1 do
          s := !s +. (a.(i).(j) *. xarrs.(j).(e))
        done;
        acc.(e) <- !s
      done;
      check_bits "block_axpy y" (Field.of_array acc) ys.(i))
    ys2

(* ---------- Wilson.hop_multi ---------- *)

let wilson_setup dims =
  let geom = Lattice.Geometry.create dims in
  let gauge = Gauge.random geom (rng ()) in
  (geom, Wilson.of_geometry geom gauge)

let prop_hop_multi_bit_identical =
  QCheck.Test.make ~name:"hop_multi = k independent hops (any k, any pool)"
    ~count:12
    QCheck.(pair (int_range 1 8) (int_range 0 3))
    (fun (k, geom_idx) ->
      let geom, w = wilson_setup [| 4; 2; 2; 4 |] in
      let n = Lattice.Geometry.volume geom * Wilson.floats_per_site in
      let r = rng () in
      let srcs = batch_of r k n in
      let dsts = Array.init k (fun _ -> Field.create n) in
      let refs = Array.init k (fun _ -> Field.create n) in
      Array.iteri (fun v src -> Wilson.hop w ~src ~dst:refs.(v)) srcs;
      (match geom_idx with
      | 0 -> Wilson.hop_multi w ~srcs ~dsts
      | 1 ->
        Wilson.hop_multi ~pool:(Util.Pool.shared ~domains:1) w ~srcs ~dsts
      | 2 ->
        Wilson.hop_multi ~pool:(Util.Pool.shared ~domains:2) ~chunk:7 w ~srcs
          ~dsts
      | _ ->
        Wilson.hop_multi ~pool:(Util.Pool.shared ~domains:4) ~chunk:33 w ~srcs
          ~dsts);
      Array.for_all2
        (fun d rf -> Field.max_abs_diff d rf = 0.)
        dsts refs)

(* ---------- Mobius batched Schur chain ---------- *)

let mobius_eo_setup () =
  let geom = Lattice.Geometry.create [| 2; 2; 2; 4 |] in
  let gauge = Gauge.warm geom (rng ()) ~eps:0.4 in
  let gauge = Gauge.with_antiperiodic_time gauge in
  let p = Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass:0.1 in
  Mobius.of_geometry_eo p geom gauge

let test_mobius_schur_multi_bit_identical () =
  let eo = mobius_eo_setup () in
  let n = Mobius.eo_field_length eo in
  let r = rng () in
  let k = 3 in
  let srcs = batch_of r k n in
  let dsts = Array.init k (fun _ -> Field.create n) in
  let refs = Array.init k (fun _ -> Field.create n) in
  Array.iteri
    (fun v src -> Mobius.apply_schur_normal eo ~src ~dst:refs.(v))
    srcs;
  Mobius.apply_schur_normal_multi eo ~srcs ~dsts;
  Array.iteri (fun v d -> check_bits "schur_normal_multi" d refs.(v)) dsts

(* ---------- Cg.solve_multi trajectory invariance ---------- *)

(* Diagonal SPD operator; RHS i supported only on elements with
   [e land 63 = 0] converges in one iteration — the early-converging
   system whose masked exit must not perturb the survivors. *)
let diag_coeff e = 1.5 +. (float_of_int (e land 63) /. 100.)

let diag_apply_one (x : Field.t) (y : Field.t) =
  for e = 0 to Field.length x - 1 do
    Bigarray.Array1.unsafe_set y e
      (diag_coeff e *. Bigarray.Array1.unsafe_get x e)
  done

let diag_apply_multi xs ys = Array.iteri (fun i x -> diag_apply_one x ys.(i)) xs

let solve_multi_case ~fused ~with_x0 () =
  let n = 24 * 256 in
  let r = rng () in
  let k = 4 in
  let bs = batch_of r k n in
  (* RHS 2: supported where diag_coeff is constant -> 1-iteration
     convergence; RHS 3: zero source -> immediate return *)
  let b2 = Field.to_array bs.(2) in
  Array.iteri (fun e _ -> if e land 63 <> 0 then b2.(e) <- 0.) b2;
  bs.(2) <- Field.of_array b2;
  Field.fill bs.(3) 0.;
  let x0s = if with_x0 then Some (batch_of r k n) else None in
  let tol = 1e-10 and max_iter = 200 in
  let flops_per_apply = float_of_int (2 * n) in
  (* each slot's |r|² trajectory, from the marks of a recording *)
  let marks slot events =
    List.filter_map
      (function Util.Prof.Mark (i, r2) when i = slot -> Some r2 | _ -> None)
      events
  in
  let (xs, stats), events =
    Util.Prof.record (fun () ->
        Cg.solve_multi ?x0s ~fused ~apply:diag_apply_multi ~bs ~tol ~max_iter
          ~flops_per_apply ())
  in
  Array.iteri
    (fun i b ->
      let x0 = Option.map (fun a -> a.(i)) x0s in
      let (x_ref, st_ref), ref_events =
        Util.Prof.record (fun () ->
            Cg.solve ?x0 ~fused ~apply:diag_apply_one ~b ~tol ~max_iter ~flops_per_apply ())
      in
      check_bits (Printf.sprintf "solve_multi x.(%d)" i) x_ref xs.(i);
      Alcotest.(check int)
        (Printf.sprintf "iterations.(%d)" i)
        st_ref.Cg.iterations stats.(i).Cg.iterations;
      Alcotest.(check bool)
        (Printf.sprintf "converged.(%d)" i)
        st_ref.Cg.converged stats.(i).Cg.converged;
      Alcotest.(check (float 0.))
        (Printf.sprintf "flops.(%d)" i)
        st_ref.Cg.flops stats.(i).Cg.flops;
      Alcotest.(check (list (float 0.)))
        (Printf.sprintf "residual trajectory.(%d)" i)
        (marks 0 ref_events) (marks i events))
    bs;
  (* the early-converging RHS really did retire early (a random x0
     seeds the residual everywhere, so only the zero-guess case has
     the constant-coefficient support that converges in one step) *)
  if not with_x0 then
    Alcotest.(check bool) "RHS 2 converged early" true
      (stats.(2).Cg.iterations < stats.(0).Cg.iterations);
  Alcotest.(check int) "zero RHS returned immediately" 0
    stats.(3).Cg.iterations

let test_solve_multi_unfused () = solve_multi_case ~fused:false ~with_x0:false ()
let test_solve_multi_fused () = solve_multi_case ~fused:true ~with_x0:false ()
let test_solve_multi_x0 () = solve_multi_case ~fused:true ~with_x0:true ()

let test_solve_multi_wilson_normal () =
  (* the batched normal-equations solve on the real operator: masking
     must keep every trajectory bit-identical to the singles *)
  let geom, w = wilson_setup [| 2; 2; 2; 4 |] in
  let n = Lattice.Geometry.volume geom * Wilson.floats_per_site in
  let r = rng () in
  let k = 2 and mass = 0.2 in
  let t1 = Field.create n in
  let apply_one x y =
    Wilson.apply w ~mass ~src:x ~dst:t1;
    Wilson.apply_dagger w ~mass ~src:t1 ~dst:y
  in
  let apply_multi xs ys = Array.iteri (fun i x -> apply_one x ys.(i)) xs in
  let bs = batch_of r k n in
  let tol = 1e-8 and max_iter = 100 in
  let fpa =
    2. *. float_of_int (Dirac.Flops.wilson_apply_per_site * (n / 24))
  in
  let xs, stats =
    Cg.solve_multi ~apply:apply_multi ~bs ~tol ~max_iter ~flops_per_apply:fpa ()
  in
  Array.iteri
    (fun i b ->
      let x_ref, st_ref =
        Cg.solve ~apply:apply_one ~b ~tol ~max_iter ~flops_per_apply:fpa ()
      in
      check_bits "wilson normal x" x_ref xs.(i);
      Alcotest.(check int) "wilson normal iters" st_ref.Cg.iterations
        stats.(i).Cg.iterations)
    bs

let test_mixed_solve_multi_matches_singles () =
  let n = 24 * 64 in
  let r = rng () in
  let k = 3 in
  let bs = batch_of r k n in
  let xs, stats =
    Solver.Mixed.solve_multi ~apply:diag_apply_multi ~bs
      ~flops_per_apply:(float_of_int (2 * n))
      ()
  in
  Array.iteri
    (fun i b ->
      let x_ref, st_ref =
        Solver.Mixed.solve ~apply:diag_apply_one ~b
          ~flops_per_apply:(float_of_int (2 * n))
          ()
      in
      check_bits "mixed multi x" x_ref xs.(i);
      Alcotest.(check int) "mixed multi iters" st_ref.Cg.iterations
        stats.(i).Cg.iterations)
    bs

(* ---------- batch width in the tuner signature ---------- *)

let test_tuner_signature_includes_batch_width () =
  let geom, w = wilson_setup [| 2; 2; 2; 4 |] in
  let n = Lattice.Geometry.volume geom * Wilson.floats_per_site in
  let r = rng () in
  let t = Autotune.Tuner.create ~repeats:1 () in
  let tune kmax =
    Autotune.Variants.tune_hop ~max_domains:2 t [ w ]
      ~srcs:(batch_of r kmax n)
      ~dsts:(Array.init kmax (fun _ -> Field.create n))
      ~signature:"test"
  in
  let p1 = tune 1 in
  let w1 = Autotune.Variants.label p1 in
  Alcotest.(check int) "single-RHS space tunes width 1" 1
    p1.Autotune.Variants.k;
  Alcotest.(check int) "first search" 1 (Autotune.Tuner.tune_count t);
  (* widening the batch must be a fresh search, never a cache hit of
     the single-RHS winner: kmax is in the signature and k in every
     label *)
  let w8 = Autotune.Variants.label (tune 8) in
  Alcotest.(check int) "batched space re-tunes" 2
    (Autotune.Tuner.tune_count t);
  Alcotest.(check int) "no cross-width cache hit" 0
    (Autotune.Tuner.hit_count t);
  (* and repeating either shape IS a cache hit of its own winner *)
  let w1' = Autotune.Variants.label (tune 1) in
  let w8' = Autotune.Variants.label (tune 8) in
  Alcotest.(check int) "same-shape lookups hit" 2
    (Autotune.Tuner.hit_count t);
  Alcotest.(check string) "width-1 winner stable" w1 w1';
  Alcotest.(check string) "width-8 winner stable" w8 w8'

(* ---------- Perf_model amortized traffic ---------- *)

let test_perf_model_mrhs_formulas () =
  let module PM = Machine.Perf_model in
  Alcotest.(check (float 0.)) "link bytes/site" 1152. PM.link_bytes_per_site;
  Alcotest.(check (float 0.)) "spinor bytes/site" 1920. PM.spinor_bytes_per_site;
  List.iter
    (fun k ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "mrhs bytes k=%d" k)
        (PM.spinor_bytes_per_site
        +. (PM.link_bytes_per_site /. float_of_int k))
        (PM.mrhs_bytes_per_site ~k);
      Alcotest.(check (float 0.))
        (Printf.sprintf "traffic ratio k=%d" k)
        (PM.mrhs_bytes_per_site ~k /. PM.mrhs_bytes_per_site ~k:1)
        (PM.mrhs_traffic_ratio ~k))
    [ 1; 2; 4; 8; 16 ];
  (* k = 1 recovers the per-hop half of the model's 5d site bytes *)
  Alcotest.(check (float 0.)) "k=1 = single-RHS hop bytes"
    (Dirac.Flops.actual_bytes_per_5d_site_double /. 2.)
    (PM.mrhs_bytes_per_site ~k:1);
  (* strictly decreasing in k *)
  Alcotest.(check bool) "amortization monotone" true
    (PM.mrhs_bytes_per_site ~k:8 < PM.mrhs_bytes_per_site ~k:2);
  (match PM.mrhs_bytes_per_site ~k:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "k=0 accepted")

(* ---------- plan catalog entries ---------- *)

let test_mrhs_catalog_clean_and_priced () =
  let module PR = Check.Plan_record in
  let module PC = Check.Plan_check in
  let recorded name =
    match PR.find name with
    | None -> Alcotest.failf "%s missing from catalog" name
    | Some f -> f ()
  in
  (* one recorded iteration of Cg.solve_multi, projected onto RHS 0.
     The fused batched tail keeps p·Ap as its own dot_re per RHS (the
     batched operator has no tail): 3 sweeps, the separate-dot tail
     the model does not price. The unfused tail is the 5-sweep plan
     the model prices: zero gap. Both verify clean. *)
  let fused = recorded "cg-tail-multi-fused" in
  Alcotest.(check (option int)) "fused tail unpriced" None
    (PC.sweep_gap fused);
  let launches = Check.Plan_ir.launches fused in
  Alcotest.(check (list string)) "fused tail launches"
    [ "Mobius.apply_schur_normal_multi"; "Field.dot_re"; "Multi_blas.cg_update";
      "Multi_blas.xpay_dot" ]
    (List.map (fun k -> k.Check.Plan_ir.kname) launches);
  Alcotest.(check int) "fused tail IR sweeps" 3
    (List.fold_left (fun acc k -> acc + k.Check.Plan_ir.sweeps) 0 launches);
  let unfused = recorded "cg-tail-multi" in
  Alcotest.(check (option int)) "unfused tail sweep gap" (Some 0)
    (PC.sweep_gap unfused);
  (* the batched hop at k = 8, recorded: every src and dst its own
     buffer, so the aliasing pass vets the whole batch *)
  let hop8 =
    let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
    let w = Dirac.Wilson.of_geometry geom (Lattice.Gauge.random geom (Util.Rng.create 8)) in
    let field () = Linalg.Field.create (Lattice.Geometry.volume geom * 24) in
    let srcs = Array.init 8 (fun _ -> field ()) and dsts = Array.init 8 (fun _ -> field ()) in
    PR.plan "wilson-hop-multi-k8"
      (snd (Util.Prof.record (fun () -> Dirac.Wilson.hop_multi w ~srcs ~dsts)))
  in
  Alcotest.(check int) "k = 8 hop declares u, 8 srcs, 8 dsts" 17
    (List.length hop8.Check.Plan_ir.buffers);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (p.Check.Plan_ir.pname ^ " verifies clean")
        0
        (List.length (PC.verify p)))
    [ fused; unfused; recorded "wilson-hop-multi"; hop8 ]

let test_shutdown () = Util.Pool.shutdown_shared ()

let suite =
  [
    Alcotest.test_case "multi_blas: batch = fused singles, bitwise" `Quick
      test_multi_blas_matches_fused;
    Alcotest.test_case "multi_blas: pooled = serial, bitwise" `Quick
      test_multi_blas_pooled_matches_serial;
    Alcotest.test_case "multi_blas: block_axpy accumulation order" `Quick
      test_block_axpy_matches_sequential;
    QCheck_alcotest.to_alcotest prop_hop_multi_bit_identical;
    Alcotest.test_case "mobius: batched Schur chain bitwise" `Quick
      test_mobius_schur_multi_bit_identical;
    Alcotest.test_case "cg: solve_multi = k solves (unfused)" `Quick
      test_solve_multi_unfused;
    Alcotest.test_case "cg: solve_multi = k solves (fused)" `Quick
      test_solve_multi_fused;
    Alcotest.test_case "cg: solve_multi = k solves (x0 seeded)" `Quick
      test_solve_multi_x0;
    Alcotest.test_case "cg: solve_multi on the Wilson normal op" `Quick
      test_solve_multi_wilson_normal;
    Alcotest.test_case "mixed: solve_multi = singles" `Quick
      test_mixed_solve_multi_matches_singles;
    Alcotest.test_case "tuner: batch width in cache signature" `Quick
      test_tuner_signature_includes_batch_width;
    Alcotest.test_case "perf_model: amortized link traffic formulas" `Quick
      test_perf_model_mrhs_formulas;
    Alcotest.test_case "plan: multi-RHS catalog entries priced clean" `Quick
      test_mrhs_catalog_clean_and_priced;
    Alcotest.test_case "pool shutdown" `Quick test_shutdown;
  ]
