(* Fused BLAS-1 solver kernel experiment: single-pass update+reduce
   kernels (Linalg.Fused) vs the unfused sequences they replace, at
   kernel level and whole-solve level, plus the fusion autotuner's
   chosen winner. Rows merge into BENCH_kernels.json alongside the
   pool experiment's.

   The interesting comparison is serial fused vs serial unfused: same
   flops (up to the monitor dot), same arithmetic, fewer memory
   sweeps — on a streaming-bound vector the fused kernel's win is the
   5→2 sweep story the Perf_model prices. Geometry rows record the
   pooled fused kernels too; on a single-core box they carry the usual
   honest fork/join sub-1x. *)

module Field = Linalg.Field
module Fused = Linalg.Fused
module Pool = Util.Pool
module Ascii = Util.Ascii
open Bench_json

let time_ns = Pool_bench.time_ns

let mk n seed =
  let v = Field.create n in
  Field.gaussian (Util.Rng.create seed) v;
  v

let run ?(out = "BENCH_kernels.json") () =
  Ascii.banner "fused BLAS-1 solver kernels: single-pass vs unfused sweeps";
  let n = 1 lsl 20 in
  let p = mk n 21 and ap = mk n 22 and x = mk n 23 and r = mk n 24 in
  (* tiny alpha/beta so repeated timing passes keep the data finite *)
  let alpha = 1e-3 and beta = 0.5 in
  let kernel_rows kernel ~unfused ~fused ~fused_pooled =
    let t_unfused = time_ns unfused in
    let t_fused = time_ns fused in
    let base =
      { kernel; n; geometry = "unfused_serial"; ns_per_op = t_unfused;
        speedup = 1. }
    in
    let fused_row =
      { kernel; n; geometry = "fused_serial"; ns_per_op = t_fused;
        speedup = t_unfused /. t_fused }
    in
    base :: fused_row
    :: List.map
         (fun (d, c) ->
           let t = time_ns (fun () -> fused_pooled (Pool.shared ~domains:d) c) in
           {
             kernel;
             n;
             geometry = Printf.sprintf "fused_d%d_c%d" d c;
             ns_per_op = t;
             speedup = t_unfused /. t;
           })
         (Autotune.Variants.pool_geometries
            ~max_domains:(max 2 (Domain.recommended_domain_count ()))
            ~n ())
  in
  (* cg_update vs the three kernels it fuses *)
  let cg_update_rows =
    kernel_rows "cg_update"
      ~unfused:(fun () ->
        Field.axpy alpha p x;
        Field.axpy (-.alpha) ap r;
        ignore (Field.norm2 r : float))
      ~fused:(fun () -> ignore (Fused.cg_update alpha p ap x r : float))
      ~fused_pooled:(fun pool c ->
        ignore (Fused.cg_update_with pool ~chunk:c alpha p ap x r : float))
  in
  (* xpay_dot vs xpay + dot_re *)
  let xpay_dot_rows =
    kernel_rows "xpay_dot"
      ~unfused:(fun () ->
        Field.xpay r beta p;
        ignore (Field.dot_re p r : float))
      ~fused:(fun () -> ignore (Fused.xpay_dot r beta p r : float))
      ~fused_pooled:(fun pool c ->
        ignore (Fused.xpay_dot_with pool ~chunk:c r beta p r : float))
  in
  (* axpy_norm2 vs axpy + norm2 *)
  let axpy_norm2_rows =
    kernel_rows "axpy_norm2"
      ~unfused:(fun () ->
        Field.axpy alpha p r;
        ignore (Field.norm2 r : float))
      ~fused:(fun () -> ignore (Fused.axpy_norm2 alpha p r : float))
      ~fused_pooled:(fun pool c ->
        ignore (Fused.axpy_norm2_with pool ~chunk:c alpha p r : float))
  in
  (* caxpy_norm2 vs caxpy + norm2 *)
  let caxpy_norm2_rows =
    kernel_rows "caxpy_norm2"
      ~unfused:(fun () ->
        Field.caxpy (1e-3, -1e-3) p r;
        ignore (Field.norm2 r : float))
      ~fused:(fun () -> ignore (Fused.caxpy_norm2 (1e-3, -1e-3) p r : float))
      ~fused_pooled:(fun pool c ->
        ignore (Fused.caxpy_norm2_with pool ~chunk:c (1e-3, -1e-3) p r : float))
  in
  (* whole-solve: CG against a diagonal SPD operator big enough that
     the BLAS-1 tail is the entire cost — the end-to-end view of the
     same sweep reduction. Identical trajectories by construction, so
     all three columns run the same iteration count. The tail-fused
     column rides the p·Ap reduction on the operator's own sweep
     through the canonical 2048-float blocks (Cg.solve's apply_dot),
     closing the 3→2 sweep gap the separate-dot fallback keeps. *)
  let solve_rows =
    let ns = 1 lsl 18 in
    let apply (src : Field.t) (dst : Field.t) =
      for i = 0 to ns - 1 do
        Bigarray.Array1.unsafe_set dst i
          ((1.5 +. (float_of_int (i land 63) /. 100.))
          *. Bigarray.Array1.unsafe_get src i)
      done
    in
    let block = Field.reduce_block in
    let apply_dot (src : Field.t) (dst : Field.t) =
      let n_blocks = (ns + block - 1) / block in
      let partials = Array.make n_blocks 0. in
      for bi = 0 to n_blocks - 1 do
        let lo = bi * block and hi = min ns ((bi + 1) * block) in
        let acc = ref 0. in
        for i = lo to hi - 1 do
          Bigarray.Array1.unsafe_set dst i
            ((1.5 +. (float_of_int (i land 63) /. 100.))
            *. Bigarray.Array1.unsafe_get src i);
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
    let b = mk ns 25 in
    let solve ?apply_dot fused () =
      ignore
        (Solver.Cg.solve ~fused ?apply_dot ~apply ~b ~tol:1e-8 ~max_iter:200
           ~flops_per_apply:(float_of_int (2 * ns))
           ()
          : Field.t * Solver.Cg.stats)
    in
    let t_unfused = time_ns ~repeats:3 (solve false) in
    let t_fused = time_ns ~repeats:3 (solve true) in
    let t_tail = time_ns ~repeats:3 (solve ~apply_dot true) in
    [
      { kernel = "cg_solve"; n = ns; geometry = "unfused_serial";
        ns_per_op = t_unfused; speedup = 1. };
      { kernel = "cg_solve"; n = ns; geometry = "fused_serial";
        ns_per_op = t_fused; speedup = t_unfused /. t_fused };
      { kernel = "cg_solve"; n = ns; geometry = "tailfused_serial";
        ns_per_op = t_tail; speedup = t_unfused /. t_tail };
    ]
  in
  (* the tail-fused stencil itself: Wilson hop with the p·Ap-style dot
     riding its closing sweep vs hop followed by a separate dot_re —
     the kernel-level view of the PLAN005 gap closing *)
  let hop_tail_rows =
    let geom = Lattice.Geometry.create [| 8; 8; 8; 8 |] in
    let gauge = Lattice.Gauge.warm geom (Util.Rng.create 26) ~eps:0.3 in
    let w = Dirac.Wilson.of_geometry geom gauge in
    let vol = Lattice.Geometry.volume geom in
    let nf = vol * Dirac.Wilson.floats_per_site in
    let src = mk nf 27 and dst = Field.create nf in
    let tail = Fused.tail ~dot:src () in
    let t_unfused =
      time_ns (fun () ->
          Dirac.Wilson.hop w ~src ~dst;
          ignore (Field.dot_re src dst : float))
    in
    let t_fused =
      time_ns (fun () ->
          ignore (Dirac.Wilson.hop_tail w ~src ~dst ~tail : float))
    in
    [
      { kernel = "wilson_hop_tail"; n = vol; geometry = "hop_then_dot";
        ns_per_op = t_unfused; speedup = 1. };
      { kernel = "wilson_hop_tail"; n = vol; geometry = "tailfused";
        ns_per_op = t_fused; speedup = t_unfused /. t_fused };
    ]
  in
  (* the fusion tuner's chosen winner for this shape, re-measured
     through the runner the tuner timed against the serial-unfused
     baseline launch *)
  let tuned_rows =
    let module V = Autotune.Variants in
    (* every candidate through the static plan analyzer before the
       tuner prices (and caches) anything *)
    let lint (l : V.launch) =
      match Check.Plan_check.lint_fusion ~n ~mode:l.mode ~geometry:l.geometry with
      | [] -> None
      | d :: _ -> Some (Check.Diagnostic.to_string d)
    in
    let winner = V.tune_fusion ~lint (Autotune.Tuner.create ()) ~n in
    let t_base = time_ns (fun () -> V.run_fusion ~p ~ap ~x ~r V.baseline) in
    let t_winner = time_ns (fun () -> V.run_fusion ~p ~ap ~x ~r winner) in
    [
      {
        kernel = "cg_blas1_tuned";
        n;
        geometry = V.label winner;
        ns_per_op = t_winner;
        speedup = t_base /. t_winner;
      };
    ]
  in
  let rows =
    cg_update_rows @ xpay_dot_rows @ axpy_norm2_rows @ caxpy_norm2_rows
    @ solve_rows @ hop_tail_rows @ tuned_rows
  in
  Bench_json.print_table rows;
  Bench_json.write ~file:out
    ~replacing:
      [
        "cg_update"; "xpay_dot"; "axpy_norm2"; "caxpy_norm2"; "cg_solve";
        "wilson_hop_tail"; "cg_blas1_tuned";
      ]
    rows;
  Printf.printf
    "%d rows -> %s (tail-fused vs unfused is the 5->2 sweep trade; pooled\n\
     rows need hardware lanes to beat serial)\n"
    (List.length rows) out;
  Pool.shutdown_shared ()
