(* Fused BLAS-1 solver kernel tests: the central contract is that
   every Linalg.Fused kernel — and every solver running with ~fused —
   is bit-identical to the unfused sequence it replaces, for any pool
   geometry. That now includes the stencil tail: Wilson.hop_tail and
   Cg.solve's ~apply_dot ride the p·Ap reduction on the stencil's own
   sweep and must match hop-then-xpay_dot bit-for-bit. Plus the fusion
   autotuner's bookkeeping (winner honesty, cache-key isolation, stale
   tunecache refusal) and the Perf_model's 5->2 sweep pricing. Pools
   come from Pool.shared so the file spawns each width once. *)

module Pool = Util.Pool
module Field = Linalg.Field
module Fused = Linalg.Fused
module Cg = Solver.Cg
module Mixed = Solver.Mixed
module Bicgstab = Solver.Bicgstab
module Variants = Autotune.Variants

let exact = Alcotest.(check (float 0.))

let mk_vec seed n =
  let v = Field.create n in
  Field.gaussian (Util.Rng.create seed) v;
  v

let bytes_equal a b = Field.to_array a = Field.to_array b

(* ---- kernel-level bit-identity over random geometries ---- *)

let geometry_gen = QCheck.(pair (int_range 1 8) (int_range 1 5000))

(* Every fused kernel vs its unfused definition, serial implicit path
   and explicit pooled path, on the same random data. *)
let prop_fused_kernels_bit_identical =
  QCheck.Test.make ~name:"fused kernels bit-identical to unfused sequences"
    ~count:40
    QCheck.(pair geometry_gen (int_range 1 4000))
    (fun ((domains, chunk), n) ->
      let pool = Pool.shared ~domains in
      let run_both fused_serial fused_pooled unfused =
        (* each closure gets fresh copies of the same random data and
           returns (output bytes, scalar) *)
        let s_ref, v_ref = unfused () in
        let s_f, v_f = fused_serial () in
        let s_p, v_p = fused_pooled pool chunk in
        s_ref = s_f && s_ref = s_p && bytes_equal v_ref v_f
        && bytes_equal v_ref v_p
      in
      let alpha = 0.37 and beta = -1.21 in
      let ok_axpy =
        let x = mk_vec 1 n in
        let mk () = (Field.copy (mk_vec 2 n) : Field.t) in
        run_both
          (fun () ->
            let y = mk () in
            (Fused.axpy_norm2 alpha x y, y))
          (fun pool chunk ->
            let y = mk () in
            (Fused.axpy_norm2 ~pool ~chunk alpha x y, y))
          (fun () ->
            let y = mk () in
            Field.axpy alpha x y;
            (Field.norm2 y, y))
      in
      let ok_xpay =
        let x = mk_vec 3 n and q = mk_vec 4 n in
        run_both
          (fun () ->
            let p = mk_vec 5 n in
            (Fused.xpay_dot x beta p q, p))
          (fun pool chunk ->
            let p = mk_vec 5 n in
            (Fused.xpay_dot ~pool ~chunk x beta p q, p))
          (fun () ->
            let p = mk_vec 5 n in
            Field.xpay x beta p;
            (Field.dot_re p q, p))
      in
      let ok_cg =
        let p = mk_vec 6 n and ap = mk_vec 7 n in
        run_both
          (fun () ->
            let x = mk_vec 8 n and r = mk_vec 9 n in
            let s = Fused.cg_update alpha p ap x r in
            (s +. Field.norm2 x, r))
          (fun pool chunk ->
            let x = mk_vec 8 n and r = mk_vec 9 n in
            let s = Fused.cg_update ~pool ~chunk alpha p ap x r in
            (s +. Field.norm2 x, r))
          (fun () ->
            let x = mk_vec 8 n and r = mk_vec 9 n in
            Field.axpy alpha p x;
            Field.axpy (-.alpha) ap r;
            (Field.norm2 r +. Field.norm2 x, r))
      in
      let ok_caxpy =
        let x = mk_vec 10 n in
        run_both
          (fun () ->
            let y = mk_vec 11 n in
            (Fused.caxpy_norm2 (0.3, -0.8) x y, y))
          (fun pool chunk ->
            let y = mk_vec 11 n in
            (Fused.caxpy_norm2 ~pool ~chunk (0.3, -0.8) x y, y))
          (fun () ->
            let y = mk_vec 11 n in
            Field.caxpy (0.3, -0.8) x y;
            (Field.norm2 y, y))
      in
      ok_axpy && ok_xpay && ok_cg && ok_caxpy)

(* ---- the stencil tail: hop_tail vs hop-then-xpay_dot ---- *)

(* The tail-fused Wilson hop against the unfused sequence it replaces,
   over random pool widths and chunk sizes (in sites, deliberately not
   tile-aligned — hop_tail must round them itself), with and
   without the xpay half of the tail. The dot must come out
   bit-identical because the tail folds through the same canonical
   2048-float blocked reduction Field.dot_re runs. *)
let prop_hop_tail_bit_identical =
  let geom = Lattice.Geometry.create [| 8; 8; 4; 4 |] in
  let gauge = Lattice.Gauge.warm geom (Util.Rng.create 91) ~eps:0.3 in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let nf = Lattice.Geometry.volume geom * Dirac.Wilson.floats_per_site in
  QCheck.Test.make ~name:"tail-fused hop bit-identical to hop + xpay_dot"
    ~count:24
    QCheck.(triple (int_range 1 8) (int_range 1 2000) bool)
    (fun (domains, chunk, with_xpay) ->
      let pool = Pool.shared ~domains in
      let src = mk_vec 92 nf and q = mk_vec 93 nf in
      let dst_ref = Field.create nf and dst = Field.create nf in
      Dirac.Wilson.hop w ~src ~dst:dst_ref;
      if with_xpay then begin
        let beta = 0.37 in
        let out_ref = mk_vec 94 nf and out = mk_vec 94 nf in
        let s_ref = Fused.xpay_dot dst_ref beta out_ref q in
        let s =
          Dirac.Wilson.hop_tail ~pool ~chunk w ~src ~dst
            ~tail:(Fused.tail ~xpay:(out, beta) ~dot:q ())
        in
        s = s_ref && bytes_equal dst dst_ref && bytes_equal out out_ref
      end
      else begin
        let s_ref = Field.dot_re q dst_ref in
        let s =
          Dirac.Wilson.hop_tail ~pool ~chunk w ~src ~dst
            ~tail:(Fused.tail ~dot:q ())
        in
        s = s_ref && bytes_equal dst dst_ref
      end)

(* the runtime twin of the plan-tail-aliased fixture (PLAN002): a tail
   whose xpay output is the stencil dst must be rejected before launch *)
let test_hop_tail_alias_guard () =
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  let gauge = Lattice.Gauge.warm geom (Util.Rng.create 95) ~eps:0.3 in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let nf = Lattice.Geometry.volume geom * Dirac.Wilson.floats_per_site in
  let src = mk_vec 96 nf and dst = Field.create nf in
  Alcotest.check_raises "tail out == dst rejected"
    (Invalid_argument "Wilson.hop_tail: an output shares storage with another operand")
    (fun () ->
      ignore
        (Dirac.Wilson.hop_tail w ~src ~dst
           ~tail:(Fused.tail ~xpay:(dst, 0.5) ~dot:src ())
          : float))

(* ---- solver-level bit-identity over random operators ---- *)

(* diagonal SPD operator (componentwise-real): spectrum in [1.5, 2.5] *)
let diag_apply n (src : Field.t) (dst : Field.t) =
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set dst i
      ((1.5 +. (float_of_int (i mod 97) /. 100.))
      *. Bigarray.Array1.unsafe_get src i)
  done

(* complex-diagonal operator for BiCGStab: multiplies pair k by
   (1.5 + k mod 7 / 10, 0.2) — complex-linear, well-conditioned *)
let cdiag_apply n (src : Field.t) (dst : Field.t) =
  for k = 0 to (n / 2) - 1 do
    let cr = 1.5 +. (float_of_int (k mod 7) /. 10.) and ci = 0.2 in
    let sr = Bigarray.Array1.unsafe_get src (2 * k) in
    let si = Bigarray.Array1.unsafe_get src ((2 * k) + 1) in
    Bigarray.Array1.unsafe_set dst (2 * k) ((cr *. sr) -. (ci *. si));
    Bigarray.Array1.unsafe_set dst ((2 * k) + 1) ((cr *. si) +. (ci *. sr))
  done

let with_default_pool domains f =
  let saved = Pool.get_default () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default saved)
    (fun () ->
      Pool.set_default (Pool.shared ~domains);
      f ())

(* [f]'s result and the |r|² trajectory its solve marks in a
   Util.Prof recording. *)
let trace_of f =
  let r, events = Util.Prof.record f in
  (r, List.filter_map (function Util.Prof.Mark (0, r2) -> Some r2 | _ -> None) events)

(* fused CG/Mixed/BiCGStab vs unfused: same iteration count, same
   reliable-update count, bit-identical residual trajectory and
   solution, over random rhs, n and 1-8 domain default-pool widths
   (n spans the parallel cutoff so the implicit pooled path is hit) *)
let prop_fused_solvers_bit_identical =
  QCheck.Test.make ~name:"fused solvers bit-identical to unfused" ~count:8
    QCheck.(pair (int_range 1 8) (int_range 8 2200))
    (fun (domains, k) ->
      let n = 24 * k in
      let b = mk_vec 31 n in
      with_default_pool domains (fun () ->
          let solve_cg fused =
            trace_of (fun () ->
                Cg.solve ~fused ~apply:(diag_apply n) ~b ~tol:1e-10
                  ~max_iter:300 ~flops_per_apply:1. ())
          in
          let (xu, su), tru = solve_cg false in
          let (xf, sf), trf = solve_cg true in
          let cg_ok =
            su.Cg.iterations = sf.Cg.iterations
            && tru = trf && bytes_equal xu xf
            && su.Cg.relative_residual = sf.Cg.relative_residual
          in
          let solve_mixed fused =
            trace_of (fun () ->
                Mixed.solve ~fused ~apply:(diag_apply n) ~b
                  ~flops_per_apply:1. ())
          in
          let (mu, smu), trmu = solve_mixed false in
          let (mf, smf), trmf = solve_mixed true in
          let mixed_ok =
            smu.Cg.iterations = smf.Cg.iterations
            && smu.Cg.reliable_updates = smf.Cg.reliable_updates
            && trmu = trmf && bytes_equal mu mf
          in
          let solve_bi fused =
            trace_of (fun () ->
                Bicgstab.solve ~fused ~apply:(cdiag_apply n) ~b
                  ~tol:1e-10 ~max_iter:300 ~flops_per_apply:1. ())
          in
          let (bu, sbu), trbu = solve_bi false in
          let (bf, sbf), trbf = solve_bi true in
          let bi_ok =
            sbu.Cg.iterations = sbf.Cg.iterations
            && trbu = trbf && bytes_equal bu bf
          in
          cg_ok && mixed_ok && bi_ok))

(* fused trajectories are also invariant across pool geometry: the
   same solve at n >= parallel_cutoff under widths 1/2/4/8 produces
   one bit-identical trajectory (the canonical blocked reduction at
   work through the fused terms) *)
let test_fused_geometry_invariance () =
  let n = 65536 in
  Alcotest.(check bool) "n clears the cutoff" true
    (n >= Field.parallel_cutoff);
  let b = mk_vec 41 n in
  let run domains =
    with_default_pool domains (fun () ->
        trace_of (fun () ->
            let _, s =
              Cg.solve ~fused:true ~apply:(diag_apply n) ~b ~tol:1e-10
                ~max_iter:300 ~flops_per_apply:1. ()
            in
            s))
  in
  let s1, tr1 = run 1 in
  List.iter
    (fun d ->
      let sd, trd = run d in
      Alcotest.(check int)
        (Printf.sprintf "iterations d=%d" d)
        s1.Cg.iterations sd.Cg.iterations;
      Alcotest.(check bool)
        (Printf.sprintf "trajectory d=%d" d)
        true (tr1 = trd))
    [ 2; 4; 8 ]

(* The CG trajectory is invariant across all three tail modes:
   unfused, fused with the separate monitor dot, and tail-fused with
   p·Ap riding the operator's own sweep (~apply_dot). The apply_dot
   here folds the dot through the canonical reduce_block partials —
   exactly what the Wilson/Möbius tails do — so all three solves are
   one bit-identical trajectory, serial and pooled. *)
let test_cg_tail_fused_trajectory () =
  let n = 1 lsl 16 in
  let b = mk_vec 45 n in
  let apply = diag_apply n in
  let block = Field.reduce_block in
  let apply_dot (src : Field.t) (dst : Field.t) =
    apply src dst;
    let n_blocks = (n + block - 1) / block in
    let partials = Array.make n_blocks 0. in
    for bi = 0 to n_blocks - 1 do
      let lo = bi * block and hi = min n ((bi + 1) * block) in
      let acc = ref 0. in
      for i = lo to hi - 1 do
        acc :=
          !acc
          +. (Bigarray.Array1.unsafe_get src i
             *. Bigarray.Array1.unsafe_get dst i)
      done;
      partials.(bi) <- !acc
    done;
    let acc = ref 0. in
    Array.iter (fun v -> acc := !acc +. v) partials;
    !acc
  in
  List.iter
    (fun domains ->
      with_default_pool domains (fun () ->
          let run ?apply_dot fused =
            trace_of (fun () ->
                Cg.solve ~fused ?apply_dot ~apply ~b ~tol:1e-10
                  ~max_iter:300 ~flops_per_apply:1. ())
          in
          let (xu, su), tru = run false in
          let (xf, sf), trf = run true in
          let (xt, st), trt = run ~apply_dot true in
          Alcotest.(check int)
            (Printf.sprintf "fused iterations d=%d" domains)
            su.Cg.iterations sf.Cg.iterations;
          Alcotest.(check int)
            (Printf.sprintf "tail-fused iterations d=%d" domains)
            su.Cg.iterations st.Cg.iterations;
          Alcotest.(check bool)
            (Printf.sprintf "fused trajectory d=%d" domains)
            true (tru = trf);
          Alcotest.(check bool)
            (Printf.sprintf "tail-fused trajectory d=%d" domains)
            true (tru = trt);
          Alcotest.(check bool)
            (Printf.sprintf "solutions bit-identical d=%d" domains)
            true
            (bytes_equal xu xf && bytes_equal xu xt);
          Alcotest.(check bool)
            (Printf.sprintf "residuals identical d=%d" domains)
            true
            (sf.Cg.relative_residual = st.Cg.relative_residual
            && su.Cg.relative_residual = st.Cg.relative_residual)))
    [ 1; 4 ]

(* Mixed reliable-update count is an invariant of the fusion mode *)
let test_mixed_reliable_updates_invariant () =
  let n = 24 * 512 in
  let b = mk_vec 51 n in
  (* a stiffer operator so the half-precision inner loop actually
     triggers several reliable updates *)
  let apply (src : Field.t) (dst : Field.t) =
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set dst i
        ((0.5 +. (4.5 *. float_of_int (i mod 53) /. 53.))
        *. Bigarray.Array1.unsafe_get src i)
    done
  in
  let _, su = Mixed.solve ~apply ~b ~flops_per_apply:1. () in
  let _, sf = Mixed.solve ~fused:true ~apply ~b ~flops_per_apply:1. () in
  Alcotest.(check bool) "several reliable updates" true
    (su.Cg.reliable_updates >= 2);
  Alcotest.(check int) "reliable updates invariant" su.Cg.reliable_updates
    sf.Cg.reliable_updates;
  Alcotest.(check int) "iterations invariant" su.Cg.iterations
    sf.Cg.iterations

(* ---- aliasing contract ---- *)

let test_alias_guards () =
  let n = 256 in
  let x = mk_vec 61 n and y = mk_vec 62 n in
  Alcotest.check_raises "axpy_norm2 y == x"
    (Invalid_argument
       "Fused.axpy_norm2: an output shares storage with another operand")
    (fun () -> ignore (Fused.axpy_norm2 1. x x : float));
  Alcotest.check_raises "cg_update x == ap"
    (Invalid_argument
       "Fused.cg_update: an output shares storage with another operand")
    (fun () -> ignore (Fused.cg_update 1. x y y x : float));
  Alcotest.check_raises "cg_update x == r"
    (Invalid_argument
       "Fused.cg_update: an output shares storage with another operand")
    (fun () -> ignore (Fused.cg_update 1. x y x x : float));
  (* the spec'd repetition is allowed: q = x read-only roles *)
  let p = mk_vec 63 n in
  ignore (Fused.xpay_dot x 0.5 p x : float)

(* ---- autotuner: fusion axis ---- *)

let fusion_space ?max_domains n =
  Variants.space ~modes:Fused.[ Unfused; Fused; Tail_fused ]
    ~geometries:(Variants.pool_geometries ?max_domains ~n ())
    ()

(* the winner the tuner picks must not lose to the always-present
   serial-unfused baseline (1.5x noise margin: these are real timings
   on a shared box) *)
let test_tuner_honesty () =
  let n = 1 lsl 18 in
  let tuner = Autotune.Tuner.create () in
  let plan = Variants.tune_fusion tuner ~n in
  let winner = Variants.label plan in
  Alcotest.(check bool) "winner is in the space" true
    (List.mem plan (fusion_space n));
  let p = mk_vec 71 n and ap = mk_vec 72 n in
  let x = mk_vec 73 n and r = mk_vec 74 n in
  let time f =
    f ();
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Util.Clock.now_s () in
      f ();
      let dt = Util.Clock.now_s () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let t_base = time (fun () -> Variants.run_fusion ~p ~ap ~x ~r Variants.baseline) in
  let t_win = time (fun () -> Variants.run_fusion ~p ~ap ~x ~r plan) in
  Alcotest.(check bool)
    (Printf.sprintf "winner %s (%.0fns) not slower than baseline (%.0fns) \
                     beyond noise" winner (t_win *. 1e9) (t_base *. 1e9))
    true
    (t_win <= t_base *. 1.5)

let test_fusion_space_and_cache_keys () =
  (* all three serial modes are always present, labels are unique, and
     every label leads with its plan's mode_name — the three modes are
     labelled disjointly so cached winners can never alias *)
  let space = fusion_space ~max_domains:4 (1 lsl 16) in
  let labels = List.map Variants.label space in
  List.iter
    (fun mode ->
      Alcotest.(check bool) (Fused.mode_name mode ^ " serial present") true
        (List.mem { Variants.baseline with mode } space))
    Fused.[ Unfused; Fused; Tail_fused ];
  Alcotest.(check int) "labels unique" (List.length labels)
    (List.length (List.sort_uniq compare labels));
  List.iter
    (fun (plan : Variants.launch) ->
      let label = Variants.label plan in
      let prefix = Fused.mode_name plan.Variants.mode in
      let plen = String.length prefix in
      Alcotest.(check bool) (label ^ " label encodes its mode") true
        (String.length label > plen
        && String.sub label 0 plen = prefix
        && label.[plen] = '_'))
    space;
  (* distinct shapes tune under distinct cache keys: two sizes, two
     entries, and re-tuning the first is a cache hit *)
  let tuner = Autotune.Tuner.create () in
  let w1 = Variants.label (Variants.tune_fusion ~max_domains:2 tuner ~n:4096) in
  ignore (Variants.tune_fusion ~max_domains:2 tuner ~n:8192 : Variants.launch);
  Alcotest.(check int) "two cache entries" 2
    (List.length (Autotune.Tuner.entries tuner));
  let hits_before = Autotune.Tuner.hit_count tuner in
  let w1' = Variants.label (Variants.tune_fusion ~max_domains:2 tuner ~n:4096) in
  Alcotest.(check string) "stable winner on re-tune" w1 w1';
  Alcotest.(check int) "cache hit" (hits_before + 1)
    (Autotune.Tuner.hit_count tuner);
  (* the signature carries the variant-space hash (":v<hex>") so a
     cache persisted before a space change never keys the same *)
  List.iter
    (fun (e : Autotune.Tuner.entry) ->
      let has_v =
        let s = e.Autotune.Tuner.signature in
        let rec scan i =
          i + 1 < String.length s
          && ((s.[i] = ':' && s.[i + 1] = 'v') || scan (i + 1))
        in
        scan 0
      in
      Alcotest.(check bool)
        (e.Autotune.Tuner.signature ^ " carries the space hash") true has_v)
    (Autotune.Tuner.entries tuner)

(* a stale tunecache — an entry cached under the same key before the
   variant space changed shape — must never serve a winner label that
   no longer names a live candidate; the search re-runs and overwrites *)
let test_tuner_stale_cache_refused () =
  let tuner = Autotune.Tuner.create ~repeats:1 () in
  let cand l = Autotune.Tuner.candidate l (fun () -> ()) in
  let old_space = [ cand "old_a"; cand "old_b" ] in
  let w = Autotune.Tuner.tune tuner ~kernel:"k" ~signature:"s" old_space in
  Alcotest.(check bool) "first winner from the old space" true
    (List.mem w [ "old_a"; "old_b" ]);
  (* same key, renamed candidates: the cached winner is now stale *)
  let new_space = [ cand "new_a"; cand "new_b" ] in
  let tunes = Autotune.Tuner.tune_count tuner in
  let w' = Autotune.Tuner.tune tuner ~kernel:"k" ~signature:"s" new_space in
  Alcotest.(check bool) "stale winner not served" true
    (List.mem w' [ "new_a"; "new_b" ]);
  Alcotest.(check int) "a fresh search ran" (tunes + 1)
    (Autotune.Tuner.tune_count tuner);
  (* the overwritten entry is live again: next lookup is a cache hit *)
  let hits = Autotune.Tuner.hit_count tuner in
  let w'' = Autotune.Tuner.tune tuner ~kernel:"k" ~signature:"s" new_space in
  Alcotest.(check string) "refreshed winner served" w' w'';
  Alcotest.(check int) "cache hit after refresh" (hits + 1)
    (Autotune.Tuner.hit_count tuner)

(* ---- flops/bytes accounting and the Perf_model traffic term ---- *)

let test_flops_accounting () =
  exact "unfused 10n" 240. (Cg.blas1_flops 24);
  exact "fused 12n" 288. (Cg.blas1_flops ~fused:true 24);
  Alcotest.(check int) "per-site flops agree with Dirac.Flops" 240
    Dirac.Flops.cg_blas1_per_5d_site;
  Alcotest.(check int) "fused per-site flops" 288
    Dirac.Flops.cg_blas1_fused_per_5d_site;
  Alcotest.(check bool) "fused moves fewer bytes" true
    (Dirac.Flops.cg_blas1_bytes_per_5d_site ~fused:true
    < Dirac.Flops.cg_blas1_bytes_per_5d_site ~fused:false)

let test_perf_model_fusion_pricing () =
  let module PM = Machine.Perf_model in
  let module Spec = Machine.Spec in
  let module Policy = Machine.Policy in
  let p = PM.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20 in
  let pol =
    { Policy.transfer = Policy.Staged_mpi; granularity = Policy.Coarse }
  in
  let get fusion =
    match PM.stencil_breakdown ?fusion Spec.sierra pol p ~n_gpus:16 with
    | Some b -> b
    | None -> Alcotest.fail "no grid"
  in
  let plain = get None in
  let unfused = get (Some false) in
  let fused = get (Some true) in
  (* omitting ?fusion leaves the calibrated model untouched: the
     BLAS-1 fields are zero and t_total is the bare stencil sum
     (t_copy is zero under the default transport, and adding the zero
     t_blas1 is exact) *)
  exact "no fusion: zero sweeps" 0. plain.PM.blas1_sweeps_per_iter;
  exact "no fusion: zero bytes" 0. plain.PM.blas1_bytes;
  exact "no fusion: zero t_blas1" 0. plain.PM.t_blas1;
  exact "no fusion: t_total is the bare stencil sum"
    (plain.PM.t_stencil
    +. (plain.PM.t_comm_inter +. plain.PM.t_comm_intra +. plain.PM.t_latency)
    +. plain.PM.t_copy +. plain.PM.t_overhead)
    plain.PM.t_total;
  (* the 5->2 sweep reduction and its byte ratio *)
  exact "unfused sweeps" 5. unfused.PM.blas1_sweeps_per_iter;
  exact "fused sweeps" 2. fused.PM.blas1_sweeps_per_iter;
  exact "bytes scale with sweeps" (unfused.PM.blas1_bytes /. 5.)
    (fused.PM.blas1_bytes /. 2.);
  exact "bytes = sweeps x sites x 48"
    (5. *. unfused.PM.local_sites *. PM.blas1_bytes_per_site_sweep)
    unfused.PM.blas1_bytes;
  Alcotest.(check bool) "fused t_blas1 smaller" true
    (fused.PM.t_blas1 < unfused.PM.t_blas1);
  Alcotest.(check bool) "t_blas1 in t_total" true
    (fused.PM.t_total < unfused.PM.t_total);
  (* t_blas1 is the last addend of t_total, so the priced totals are
     exactly the unpriced total plus the traffic term *)
  exact "unfused total = bare + t_blas1"
    (plain.PM.t_total +. unfused.PM.t_blas1)
    unfused.PM.t_total;
  exact "fused total = bare + t_blas1"
    (plain.PM.t_total +. fused.PM.t_blas1)
    fused.PM.t_total

(* ---- dwf end-to-end smoke: fused schur solve equals unfused ---- *)

let test_dwf_fused_identical () =
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  let gauge =
    Lattice.Gauge.with_antiperiodic_time
      (Lattice.Gauge.warm geom (Util.Rng.create 81) ~eps:0.2)
  in
  let params = Dirac.Mobius.mobius ~l5:4 ~m5:1.2 ~alpha:2.0 ~mass:0.05 in
  let t = Solver.Dwf_solve.create params geom gauge in
  let rhs = mk_vec 82 (Solver.Dwf_solve.field_length t) in
  let xu, su = Solver.Dwf_solve.solve ~tol:1e-8 t ~rhs in
  let xf, sf = Solver.Dwf_solve.solve ~fused:true ~tol:1e-8 t ~rhs in
  Alcotest.(check int) "iterations" su.Cg.iterations sf.Cg.iterations;
  Alcotest.(check bool) "solutions bit-identical" true (bytes_equal xu xf);
  Alcotest.(check bool) "converged" true sf.Cg.converged

let test_shutdown () = Pool.shutdown_shared ()

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fused_kernels_bit_identical;
    QCheck_alcotest.to_alcotest prop_hop_tail_bit_identical;
    Alcotest.test_case "hop tail alias guard" `Quick test_hop_tail_alias_guard;
    QCheck_alcotest.to_alcotest prop_fused_solvers_bit_identical;
    Alcotest.test_case "fused trajectory invariant across geometries" `Quick
      test_fused_geometry_invariance;
    Alcotest.test_case "CG trajectory invariant across tail modes" `Quick
      test_cg_tail_fused_trajectory;
    Alcotest.test_case "Mixed reliable-update count invariant" `Quick
      test_mixed_reliable_updates_invariant;
    Alcotest.test_case "aliasing guards" `Quick test_alias_guards;
    Alcotest.test_case "tuner honesty: winner beats or ties baseline" `Quick
      test_tuner_honesty;
    Alcotest.test_case "fusion space labels and cache keys" `Quick
      test_fusion_space_and_cache_keys;
    Alcotest.test_case "stale tunecache winner refused" `Quick
      test_tuner_stale_cache_refused;
    Alcotest.test_case "flops/bytes accounting" `Quick test_flops_accounting;
    Alcotest.test_case "Perf_model 5->2 sweep pricing" `Quick
      test_perf_model_fusion_pricing;
    Alcotest.test_case "dwf solve fused == unfused" `Quick
      test_dwf_fused_identical;
    Alcotest.test_case "shutdown shared registry" `Quick test_shutdown;
  ]
