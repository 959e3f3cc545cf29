(* Spec validator: static analysis of Core.Workflow specs and solver
   configurations before any cycles are spent. The hard errors are
   Workflow.validate_spec's, the one list [run] gates on, each reported
   as a SPEC001 error with a stable rule id and location. The advisory
   rules (parity, thermalization, tolerance ordering against the
   half-precision noise floor) only the checker knows about; they run
   on a spec validate_spec accepts. *)

module W = Core.Workflow

let rules =
  [
    ("SPEC001", "spec rejected by Workflow.validate_spec");
    ("SPEC002", "odd L5 (domain-wall parity hazard)");
    ("SPEC003", "domain-wall height or Mobius scale outside the usual range");
    ("SPEC004", "ensemble unthermalized");
    ("SPEC005", "tolerance out of the double-precision trust region");
    ("SPEC006", "mixed-precision configuration invalid");
    ("SPEC007", "tolerance below the half fixed-point noise floor");
  ]

(* Relative resolution of the int16 mantissa: one part in 32767 — the
   per-element noise floor of the half codec. *)
let half_noise_floor = 1. /. 32767.

let double_noise_floor = 1e-14

let mixed_config ~n (c : Solver.Mixed.config) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let loc = "mixed config" in
  (match Solver.Mixed.validate_config ~n c with
  | Ok () -> ()
  | Error msg ->
    add
      (Diagnostic.error ~rule:"SPEC006" ~loc msg
         ~hint:"Mixed.solve raises Invalid_argument on this configuration"));
  if c.Solver.Mixed.block > 0 && c.Solver.Mixed.block mod 24 <> 0 then
    add
      (Diagnostic.warning ~rule:"SPEC006" ~loc
         (Printf.sprintf
            "block %d is not a multiple of 24 (one site); blocks straddle \
             site boundaries"
            c.Solver.Mixed.block));
  if c.Solver.Mixed.delta > 0. && c.Solver.Mixed.delta < 0.01 then
    add
      (Diagnostic.warning ~rule:"SPEC006" ~loc
         (Printf.sprintf
            "delta %g leaves very long inner cycles between reliable \
             updates; the iterated residual can drift far from the truth"
            c.Solver.Mixed.delta));
  if c.Solver.Mixed.tol > 0. && c.Solver.Mixed.tol < half_noise_floor /. 100. then
    add
      (Diagnostic.info ~rule:"SPEC007" ~loc
         (Printf.sprintf
            "tol %g is far below the half-precision noise floor (~%.1e); \
             convergence relies on reliable updates and the double polish"
            c.Solver.Mixed.tol half_noise_floor));
  Diagnostic.sort (List.rev !ds)

let workflow_spec (s : W.spec) =
  let loc = "workflow spec" in
  match W.validate_spec s with
  | _ :: _ as problems ->
    List.map
      (fun m ->
        Diagnostic.error ~rule:"SPEC001" ~loc m
          ~hint:"Workflow.run raises Invalid_argument on this spec")
      problems
  | [] ->
    let ds = ref [] in
    let warn rule m = ds := Diagnostic.warning ~rule ~loc m :: !ds in
    if s.W.l5 mod 2 <> 0 then
      warn "SPEC002"
        (Printf.sprintf "odd l5 = %d; domain-wall spectra prefer even walls" s.W.l5);
    if s.W.m5 >= 2. then
      warn "SPEC003"
        (Printf.sprintf
           "m5 = %g outside (0,2): no single-particle domain-wall mode" s.W.m5);
    if s.W.alpha < 1. then
      warn "SPEC003"
        (Printf.sprintf "Mobius alpha = %g < 1 (Shamir limit is 1)" s.W.alpha);
    if s.W.n_thermalize = 0 then
      warn "SPEC004"
        "n_thermalize = 0: measurements start from a cold, unthermalized \
         ensemble";
    if s.W.tol < double_noise_floor then
      warn "SPEC005"
        (Printf.sprintf
           "tol = %g is below the double-precision noise floor (~%g); the \
            solver cannot certify it"
           s.W.tol double_noise_floor);
    if s.W.tol >= 1e-2 then
      warn "SPEC005"
        (Printf.sprintf "tol = %g is too loose for propagator physics" s.W.tol);
    (* SPEC006/SPEC007: the mixed-precision advisories, against the
       half-checkerboard 5D field length the inner solve actually sees *)
    let mixed =
      match s.W.precision with
      | Solver.Dwf_solve.Double -> []
      | Solver.Dwf_solve.Mixed c ->
        mixed_config ~n:(Array.fold_left ( * ) 1 s.W.dims / 2 * s.W.l5 * 24) c
    in
    Diagnostic.sort (List.rev_append !ds mixed)
