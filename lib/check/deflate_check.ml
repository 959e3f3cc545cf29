(* Static checker for low-mode deflation executions (Solver.Lanczos /
   Solver.Deflate threaded through Cg.solve / Cg.solve_multi /
   Mixed.solve). A deflated solve is summarized as a [plan] — which
   solver kernel, the executed rank, the hash of the configuration the
   space was built from vs the live one, and the basis's measured
   orthonormality drift and worst eigen-residual against the bound it
   was built to — and the pass verifies the contract a deflated guess
   rests on:

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

type plan = {
  kernel : string;  (* deflated solver kernel, e.g. "cg_deflate" *)
  rank : int;  (* executed deflation rank *)
  n : int;  (* vector length in floats *)
  space_hash : int;  (* configuration hash the space was built from *)
  config_hash : int;  (* live configuration hash *)
  ortho_drift : float;  (* measured max |v_i·v_j − δ_ij| *)
  max_residual : float;  (* measured worst |A v − λ v| over the basis *)
  bound : float;  (* the drift/residual bound the space was built to *)
}

let rules =
  [
    ("DEF001", "deflation space is stale against the live gauge configuration");
    ("DEF002", "deflation basis drifted beyond its orthonormality/residual bound");
  ]

let plan ~kernel ~rank ~n ~space_hash ~config_hash ~ortho_drift
    ~max_residual ~bound () =
  {
    kernel;
    rank;
    n;
    space_hash;
    config_hash;
    ortho_drift;
    max_residual;
    bound;
  }

let loc p = Printf.sprintf "%s[rank=%d,n=%d]" p.kernel p.rank p.n

let check_stale p =
  if p.space_hash = p.config_hash then []
  else
    [
      Diagnostic.error ~rule:"DEF001" ~loc:(loc p)
        ~hint:
          "rebuild the space on the live configuration (Lanczos.lowest, \
           warm-started from the previous basis) or key it by \
           Deflate.gauge_hash of the links it was computed from"
        (Printf.sprintf
           "deflation space was built from configuration %#x but the solve \
            runs on %#x: a stale basis is not a low-mode space of the live \
            operator, so the deflated guess silently degrades to noise"
           p.space_hash p.config_hash);
    ]

let check_drift p =
  let bad what value =
    Diagnostic.error ~rule:"DEF002" ~loc:(loc p)
      ~hint:
        "tighten Lanczos.lowest's tol (the space's bound is its build \
         tolerance) or re-orthonormalize before reuse — a drifted basis \
         double-counts modes in the Galerkin coefficients"
      (Printf.sprintf
         "deflation basis %s is %.3e against the %.3e bound the space was \
          built to: the stored Ritz data misprices the low-mode correction"
         what value p.bound)
  in
  (if p.ortho_drift > p.bound then
     [ bad "orthonormality drift max |v_i·v_j − δ_ij|" p.ortho_drift ]
   else [])
  @
  if p.max_residual > p.bound then
    [ bad "eigen-residual max |A v − λ v|" p.max_residual ]
  else []

let verify_plan p = check_stale p @ check_drift p
let verify_plans ps = List.concat_map verify_plan ps

(* Live audit: measure a real space against a live operator and
   configuration hash, then verify the resulting plan. The drift and
   residual are computed here (Deflate.ortho_drift / max_residual), so
   a caller cannot accidentally report stale audit numbers. *)
let verify_space ?(kernel = "cg_deflate") ~config_hash ~apply
    (d : Solver.Deflate.t) =
  let basis = Solver.Deflate.basis d in
  verify_plan
    (plan ~kernel ~rank:(Solver.Deflate.rank d)
       ~n:(Linalg.Field.length basis.(0))
       ~space_hash:(Solver.Deflate.config_hash d)
       ~config_hash
       ~ortho_drift:(Solver.Deflate.ortho_drift d)
       ~max_residual:(Solver.Deflate.max_residual d ~apply)
       ~bound:(Solver.Deflate.bound d) ())
