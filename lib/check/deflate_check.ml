(* Static checker for low-mode deflation executions (Solver.Lanczos /
   Solver.Deflate threaded through Cg.solve / Cg.solve_multi /
   Mixed.solve). The audit takes a live space, the live configuration
   hash and the live operator, measures the basis's orthonormality
   drift and worst eigen-residual against the bound it was built to,
   and verifies the contract a deflated guess rests on:

   DEF001  the space was built from a different gauge configuration
           than the one being solved: a stale basis is not a low-mode
           space of the live operator, so the "deflated" guess
           silently degrades to noise (the solve still converges —
           slower — which is exactly why this never trips a residual
           check on its own)
   DEF002  the basis has drifted beyond the bound it was built to:
           non-orthonormal vectors double-count modes in the Galerkin
           coefficients, and a large |A v − λ v| means the stored
           Ritz value misprices its mode's contribution 1/λ *)

let rules =
  [
    ("DEF001", "deflation space is stale against the live gauge configuration");
    ("DEF002", "deflation basis drifted beyond its orthonormality/residual bound");
  ]

(* The drift and residual are computed here (Deflate.ortho_drift /
   max_residual), so a caller cannot report stale audit numbers. *)
let verify_space ~config_hash ~apply (d : Solver.Deflate.t) =
  let loc =
    Printf.sprintf "cg_deflate[rank=%d,n=%d]" (Solver.Deflate.rank d)
      (Linalg.Field.length (Solver.Deflate.basis d).(0))
  in
  let space_hash = Solver.Deflate.config_hash d in
  let bound = Solver.Deflate.bound d in
  let stale =
    if space_hash = config_hash then []
    else
      [
        Diagnostic.error ~rule:"DEF001" ~loc
          ~hint:
            "rebuild the space on the live configuration (Lanczos.lowest) \
             or key it by Deflate.gauge_hash of the links it was computed \
             from"
          (Printf.sprintf
             "deflation space was built from configuration %#x but the \
              solve runs on %#x: a stale basis is not a low-mode space of \
              the live operator, so the deflated guess silently degrades to \
              noise"
             space_hash config_hash);
      ]
  in
  let drifted what value =
    if value > bound then
      [
        Diagnostic.error ~rule:"DEF002" ~loc
          ~hint:
            "tighten Lanczos.lowest's tol (the space's bound is its build \
             tolerance) or re-orthonormalize before reuse — a drifted \
             basis double-counts modes in the Galerkin coefficients"
          (Printf.sprintf
             "deflation basis %s is %.3e against the %.3e bound the space \
              was built to: the stored Ritz data misprices the low-mode \
              correction"
             what value bound);
      ]
    else []
  in
  stale
  @ drifted "orthonormality drift max |v_i·v_j − δ_ij|"
      (Solver.Deflate.ortho_drift d)
  @ drifted "eigen-residual max |A v − λ v|"
      (Solver.Deflate.max_residual d ~apply)
