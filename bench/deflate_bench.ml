(* Low-mode deflation experiment: a 24-solve campaign slice (the
   paper's 12 spin-color columns x 2 sources per configuration)
   against one SPD operator with a handful of well-separated small
   eigenvalues — the regime where the FH solves burn their time. For
   each deflation rank the Lanczos setup is timed apart from the
   solves, so the rows record the real trade the tuner prices: the
   per-solve iteration/time reduction the space buys, what the space
   cost to build, and the measured break-even solve count
   (Perf_model.deflation_break_even_solves) after which the setup has
   paid for itself. The model rows record the Ritz-compressed
   condition number lambda_max/lambda_cut and the classical
   sqrt-kappa iteration ratio it predicts; the tuned row re-measures
   Variants.tune_deflation's winner on the same right-hand sides as a
   whole campaign (setup amortized in), through the runner the tuner
   timed, against the undeflated launch. Rows merge into
   BENCH_kernels.json alongside the other experiments'. *)

module Field = Linalg.Field
module Pool = Util.Pool
module Ascii = Util.Ascii
open Bench_json

let time_ns = Pool_bench.time_ns
let solves = 24
let n = 24 * 100
let ranks = [ 4; 8 ]

(* Eight separated low modes (geometric 2.4x spacing) under a unit
   bulk: kappa ~ 2e3 undeflated, every rank candidate covers a
   genuinely separated prefix of the cluster (a rank chasing
   near-degenerate bulk modes would pay an unbounded Lanczos bill —
   exactly the failure mode the tuner exists to refuse). *)
let low = Array.init 8 (fun i -> 1e-3 *. (2.4 ** float_of_int i))

let diag =
  Array.init n (fun i ->
      if i < Array.length low then low.(i)
      else 1. +. (float_of_int i /. float_of_int n))

(* The operator is applied as [sweeps_per_apply] passes of its
   diagonal root D^(1/K): same spectrum, but each apply streams the
   vector K times — the arithmetic intensity of a real stencil
   (the Wilson normal operator is two 8-point hops per apply). At a
   diag-multiply apply cost the Lanczos build is dominated by its
   dense reorthogonalization instead of its operator applies, and the
   setup-vs-solves amortization the experiment prices would be an
   artifact of the toy operator. *)
let sweeps_per_apply = 16

let root =
  Array.map (fun d -> d ** (1. /. float_of_int sweeps_per_apply)) diag

let apply (x : Field.t) (y : Field.t) =
  Field.blit x y;
  for _ = 1 to sweeps_per_apply do
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set y i
        (root.(i) *. Bigarray.Array1.unsafe_get y i)
    done
  done

let mk seed =
  let v = Field.create n in
  Field.gaussian (Util.Rng.create seed) v;
  v

let run ?(out = "BENCH_kernels.json") () =
  Ascii.banner "low-mode deflation: amortized Lanczos spaces vs plain CG";
  let rhs = Array.init solves (fun i -> mk (100 + i)) in
  let iters = ref 0 in
  let campaign ?deflate () =
    iters := 0;
    Array.iter
      (fun b ->
        let _, st =
          Solver.Cg.solve ?deflate ~apply ~b ~tol:1e-10 ~max_iter:(100 * n)
            ~flops_per_apply:(2. *. float_of_int (sweeps_per_apply * n))
            ()
        in
        iters := !iters + st.Solver.Cg.iterations)
      rhs
  in
  let t_undefl = time_ns (campaign ?deflate:None) in
  let iters_undefl = float_of_int !iters /. float_of_int solves in
  let per_rank =
    List.map
      (fun rank ->
        let space = ref None in
        let setup () =
          space :=
            Some
              (Solver.Deflate.of_lanczos ~config_hash:0
                 (Solver.Lanczos.lowest ~tol:1e-6 ~rank ~apply ~n
                    ~rng:(Util.Rng.create (7 + rank))
                    ()))
        in
        let t_setup = time_ns setup in
        let d = Option.get !space in
        let t_defl = time_ns (fun () -> campaign ~deflate:d ()) in
        (rank, t_setup, t_defl, float_of_int !iters /. float_of_int solves))
      ranks
  in
  let label rank = Printf.sprintf "defl_r%d_s%d" rank solves in
  let solve_rows =
    {
      kernel = "cg_deflate";
      n;
      geometry = Printf.sprintf "undeflated_s%d" solves;
      ns_per_op = t_undefl /. float_of_int solves;
      speedup = 1.0;
    }
    :: List.map
         (fun (rank, _, t_defl, _) ->
           {
             kernel = "cg_deflate";
             n;
             geometry = label rank;
             ns_per_op = t_defl /. float_of_int solves;
             speedup = t_undefl /. t_defl;
           })
         per_rank
  in
  (* mean CG iterations per solve (ns_per_op column holds the count) *)
  let iter_rows =
    {
      kernel = "cg_deflate_iters";
      n;
      geometry = "undeflated";
      ns_per_op = iters_undefl;
      speedup = 1.0;
    }
    :: List.map
         (fun (rank, _, _, it) ->
           {
             kernel = "cg_deflate_iters";
             n;
             geometry = Printf.sprintf "defl_r%d" rank;
             ns_per_op = it;
             speedup = iters_undefl /. it;
           })
         per_rank
  in
  (* setup cost and measured break-even: ns_per_op is the Lanczos
     build for the setup rows and the break-even solve count for the
     breakeven rows; speedup holds the campaign slice / break-even
     ratio (> 1: the setup pays for itself inside this campaign) *)
  let amortize_rows =
    List.concat_map
      (fun (rank, t_setup, t_defl, _) ->
        let be =
          Machine.Perf_model.deflation_break_even_solves
            ~setup_s:(t_setup /. 1e9)
            ~t_undeflated_s:(t_undefl /. float_of_int solves /. 1e9)
            ~t_deflated_s:(t_defl /. float_of_int solves /. 1e9)
        in
        [
          {
            kernel = "cg_deflate_setup";
            n;
            geometry = Printf.sprintf "defl_r%d" rank;
            ns_per_op = t_setup;
            speedup = 1.0;
          };
          {
            kernel = "cg_deflate_breakeven";
            n;
            geometry = Printf.sprintf "defl_r%d" rank;
            ns_per_op = be;
            speedup = float_of_int solves /. be;
          };
        ])
      per_rank
  in
  (* the model's view: Ritz-compressed condition number and the
     classical sqrt-kappa iteration ratio it predicts (ns_per_op holds
     the modeled kappa_deflated, speedup the predicted iteration
     speedup 1/ratio) *)
  let lambda_max = diag.(n - 1) in
  let kappa = lambda_max /. diag.(0) in
  let model_rows =
    List.map
      (fun rank ->
        let cut = diag.(min rank (n - 1)) in
        let kd =
          Machine.Perf_model.deflated_condition ~lambda_max ~lambda_cut:cut
        in
        {
          kernel = "cg_deflate_model";
          n;
          geometry = Printf.sprintf "defl_r%d_kappa" rank;
          ns_per_op = kd;
          speedup =
            1.
            /. Machine.Perf_model.deflation_iteration_ratio ~kappa
                 ~kappa_deflated:kd;
        })
      ranks
  in
  (* the rank tuner's winner for this operator and these right-hand
     sides, re-measured as a whole campaign through the runner the
     tuner timed — Lanczos setup inside the timed region, amortization
     included — against the undeflated baseline launch *)
  let tuned_rows =
    let module V = Autotune.Variants in
    let tol = 1e-10 in
    let winner =
      V.tune_deflation ~tol (Autotune.Tuner.create ()) ~apply ~bs:rhs
        ~signature:"bench"
    in
    let run = V.run_deflation ~tol ~apply ~bs:rhs in
    let t_base = time_ns (fun () -> run V.baseline) in
    let t_winner = time_ns (fun () -> run winner) in
    [
      {
        kernel = "cg_deflate_tuned";
        n;
        geometry = V.label winner;
        ns_per_op = t_winner /. float_of_int solves;
        speedup = t_base /. t_winner;
      };
    ]
  in
  let rows = solve_rows @ iter_rows @ amortize_rows @ model_rows @ tuned_rows in
  Bench_json.print_table rows;
  Bench_json.write ~file:out
    ~replacing:
      [
        "cg_deflate";
        "cg_deflate_iters";
        "cg_deflate_setup";
        "cg_deflate_breakeven";
        "cg_deflate_model";
        "cg_deflate_tuned";
      ]
    rows;
  Printf.printf
    "%d rows -> %s (iters rows: mean CG iterations per solve;\n\
     setup/breakeven rows: Lanczos build ns and the measured solve count\n\
     after which it has paid for itself; every campaign runs the same %d\n\
     right-hand sides)\n"
    (List.length rows) out solves;
  Pool.shutdown_shared ()
