(* The static plan analyzer: IR round-trip (qcheck over random plans),
   the launch sequences recorded from the solvers, the analysis rules
   on seeded-defect/clean plan pairs, the model/IR sweep cross-check,
   the lint-before-cache contract of the fusion tuner, and the
   recorder itself: it changes no bits, and a sweep added to the code
   shows up in the plan. *)

module Ir = Check.Plan_ir
module Record = Check.Plan_record
module Pc = Check.Plan_check
module D = Check.Diagnostic
module Prof = Util.Prof
module Field = Linalg.Field

let recorded name =
  match Record.find name with
  | Some build -> build ()
  | None -> Alcotest.failf "%s missing from the catalog" name

let errors ds = List.filter D.is_error ds
let rules ds = List.sort_uniq compare (List.map (fun (d : D.t) -> d.D.rule) ds)

let check_clean what ds =
  if errors ds <> [] then
    Alcotest.failf "%s should verify clean but fired: %s" what
      (String.concat "; " (List.map D.to_string (errors ds)))

let check_fires what rule ds =
  if not (List.mem rule (rules ds)) then
    Alcotest.failf "%s should fire %s but fired [%s]" what rule
      (String.concat " " (rules ds))

(* ---- IR round-trip ---- *)

(* Random syntactically valid plans: names from fixed pools exercising
   the full charset, floats built from (mantissa, exponent) so they
   are always finite, steps referencing declared buffers only. *)
let gen_plan : Ir.plan QCheck.Gen.t =
  let open QCheck.Gen in
  let buf_names = [ "alpha"; "b2"; "x_odd"; "r.hat"; "p+q" ] in
  let kernel_names = [ "axpy"; "norm2"; "dot_re"; "cg_update"; "a-b.c" ] in
  let pos_float =
    map2 (fun m e -> ldexp (float_of_int m) e) (int_range 1 1000)
      (int_range (-40) 40)
  in
  let precision =
    oneof
      [
        return Ir.Double;
        return Ir.Single;
        map (fun b -> Ir.Half b) (int_range 1 64);
        map (fun c -> Ir.Su3 c) (oneofl Linalg.Su3_codec.all);
      ]
  in
  let role =
    oneofl [ Ir.Read; Ir.Write; Ir.Update; Ir.Reduce ]
  in
  let* n = int_range 1 10_000 in
  let* n_bufs = int_range 1 (List.length buf_names) in
  let names = List.filteri (fun i _ -> i < n_bufs) buf_names in
  let* buffers =
    flatten_l
      (List.map
         (fun name ->
           let* prec = precision in
           let* range =
             option
               (map2 (fun a b -> (min a b, max a b)) pos_float pos_float)
           in
           return { Ir.bname = name; prec; range })
         names)
  in
  let buf = oneofl names in
  let step =
    frequency
      [
        ( 5,
          let* kname = oneofl kernel_names in
          let* args =
            list_size (int_range 1 3) (pair buf role)
          in
          let* geometry = option (pair (int_range 1 8) (int_range 1 n)) in
          let* partition =
            option
              (map Array.of_list
                 (list_size (int_range 1 3)
                    (map2 (fun a b -> (min a b, max a b + 1)) (int_range 0 n)
                       (int_range 0 n))))
          in
          let* block = option (int_range 1 4096) in
          let* sweeps = int_range 0 3 in
          return
            (Ir.Launch
               { Ir.kname; args; geometry; partition; block; sweeps })
        );
        ( 1,
          map2
            (fun qbuf qblock -> Ir.Quantize { qbuf; qblock })
            buf (int_range 1 100) );
      ]
  in
  let* steps = list_size (int_range 0 8) step in
  let* fusion = option bool in
  let* pname = oneofl [ "plan-a"; "p_1"; "cg.tail+x" ] in
  return { Ir.pname; n; fusion; buffers; steps }

let prop_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"plan IR round-trips exactly through print/parse"
    (QCheck.make ~print:Ir.to_string gen_plan)
    (fun p ->
      let text = Ir.to_string p in
      match Ir.of_string text with
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s\n%s" e text
      | Ok p' ->
        let text' = Ir.to_string p' in
        if text' <> text then
          QCheck.Test.fail_reportf "reprint differs:\n%s\n-- vs --\n%s" text
            text'
        else true)

let test_parse_rejects () =
  let bad what s =
    match Ir.of_string s with
    | Ok _ -> Alcotest.failf "%s should not parse" what
    | Error _ -> ()
  in
  bad "empty" "";
  bad "no header" "buffer x double\nend\n";
  bad "missing end" "plan p n=4\nbuffer x double\n";
  bad "unknown plan field" "plan p n=4 transport=staged\nend\n";
  bad "undeclared step garbage" "plan p n=4\nfrobnicate x\nend\n";
  bad "bad role" "plan p n=4\nbuffer x double\nlaunch k sweeps=1 args=x:borrow\nend\n";
  bad "bad float" "plan p n=4\nbuffer x double range=1.0:nope\nend\n"

(* ---- catalog: recording + analysis ---- *)

let test_catalog_roundtrip () =
  List.iter
    (fun (name, build) ->
      let p = build () in
      let text = Ir.to_string p in
      match Ir.of_string text with
      | Error e -> Alcotest.failf "catalog plan %s does not parse back: %s" name e
      | Ok p' ->
        Alcotest.(check string)
          (name ^ " round-trips exactly") text (Ir.to_string p'))
    Record.catalog

let test_catalog_verifies () =
  (* every catalog plan is fully silent — warnings included. The fused
     CG plans used to carry a permanent PLAN005 stencil-tail warning;
     since the tail fusion closed the gap, any diagnostic here is a
     regression. *)
  List.iter
    (fun (name, build) ->
      let ds = Pc.verify (build ()) in
      if ds <> [] then
        Alcotest.failf "%s should be silent but fired: %s" name
          (String.concat "; " (List.map D.to_string ds)))
    Record.catalog

(* ---- the recorded launch sequences ---- *)

let launch_names p =
  List.filter_map
    (function Ir.Launch k -> Some k.Ir.kname | _ -> None)
    p.Ir.steps

let test_cg_iteration_recorded () =
  (* one recorded iteration of Cg.solve on the Schur-normal operator:
     unfused, the operator then the five BLAS-1 kernels; tail-fused,
     the Schur tail carrying p·Ap, then the two Multi_blas kernels of
     the batch-of-one tail *)
  Alcotest.(check (list string)) "cg iteration (unfused)"
    [
      "Mobius.apply_schur_normal"; "Field.dot_re"; "Field.axpy"; "Field.axpy";
      "Field.norm2"; "Field.xpay";
    ]
    (launch_names (recorded "cg"));
  Alcotest.(check (list string)) "cg iteration (tail-fused)"
    [ "Mobius.apply_schur_normal_tail"; "Multi_blas.cg_update"; "Multi_blas.xpay_dot" ]
    (launch_names (recorded "cg-fused"))

let test_mixed_quantizes_recorded () =
  (* after the seed quantize of the residual, the inner iteration
     quantizes p (the operator's source), then the stencil output (its
     destination), then the residual the update wrote *)
  List.iter
    (fun name ->
      let p = recorded name in
      let quantized =
        List.filter_map
          (function Ir.Quantize { qbuf; _ } -> Some qbuf | _ -> None)
          p.Ir.steps
      in
      let stencil =
        List.find (fun k -> k.Ir.kname = "Mobius.apply_schur_normal") (Ir.launches p)
      in
      let arg role = fst (List.find (fun (_, r) -> r = role) stencil.Ir.args) in
      let updated =
        List.concat_map
          (fun k ->
            List.filter_map
              (fun (b, r) -> if r = Ir.Update then Some b else None)
              k.Ir.args)
          (Ir.launches p)
      in
      match quantized with
      | [ seed; q1; q2; q3 ] ->
        Alcotest.(check (list string)) (name ^ ": p, stencil output, residual")
          [ arg Ir.Read; arg Ir.Write; seed ] [ q1; q2; q3 ];
        Alcotest.(check bool) (name ^ ": the residual is updated") true
          (List.mem seed updated)
      | _ ->
        Alcotest.failf "%s quantizes [%s], expected 4 points" name
          (String.concat " " quantized))
    [ "mixed"; "mixed-fused" ]

let test_bicgstab_recorded () =
  (* the BLAS-1 launches of Bicgstab.solve at max_iter 1: the entry,
     both stabilizer halves, the closing true residual *)
  let blas p =
    List.filter (fun k -> k <> "Mobius.apply_schur") (launch_names p)
  in
  let pair fused =
    if fused then [ "Fused.caxpy_norm2" ] else [ "Field.caxpy"; "Field.norm2" ]
  in
  List.iter
    (fun fused ->
      Alcotest.(check (list string))
        (Printf.sprintf "bicgstab BLAS-1 (fused=%b)" fused)
        ([ "Field.copy"; "Field.norm2"; "Field.copy"; "Field.copy"; "Field.cdot";
           "Field.cdot"; "Field.blit" ]
        @ pair fused
        @ [ "Field.norm2"; "Field.cdot"; "Field.caxpy"; "Field.caxpy"; "Field.blit" ]
        @ pair fused
        @ [ "Field.cdot"; "Field.caxpy"; "Bicgstab.xpby"; "Field.sub"; "Field.norm2";
            "Field.norm2" ])
        (blas (recorded (if fused then "bicgstab-fused" else "bicgstab"))))
    [ false; true ]

(* ---- the model/IR sweep cross-check ---- *)

let test_sweep_accounting () =
  let ir_sweeps p =
    List.fold_left
      (fun acc -> function Ir.Launch k -> acc + k.Ir.sweeps | _ -> acc)
      0 p.Ir.steps
  in
  (* plan and model agree, unfused (5) and fused (2): the stencil-tail
     gap is closed, so the derived gap is zero and the host executes
     exactly what the model prices *)
  List.iter
    (fun fused ->
      let plan = recorded (if fused then "cg-tail-fused" else "cg-tail") in
      let ir = ir_sweeps plan in
      Alcotest.(check int)
        (Printf.sprintf "IR sweeps = model (fused=%b)" fused)
        (int_of_float (Machine.Perf_model.blas1_sweeps ~fused))
        ir;
      Alcotest.(check (option int))
        (Printf.sprintf "derived sweep gap is zero (fused=%b)" fused)
        (Some 0) (Pc.sweep_gap plan))
    [ false; true ];
  (* unpriced plans (no fusion tag) have no gap to derive *)
  Alcotest.(check (option int)) "separate-dot fallback is unpriced" None
    (Pc.sweep_gap (recorded "cg-tail-separate"));
  (* and a plan drifting off the model is a live PLAN005 error with
     the gap derived from the plan itself, never a whitelisted gap *)
  let p = recorded "cg-tail-fused" in
  let padded =
    {
      p with
      Ir.steps =
        List.map
          (function
            | Ir.Launch k when k.Ir.kname = "Fused.xpay_dot" ->
              Ir.Launch { k with Ir.sweeps = k.Ir.sweeps + 1 }
            | s -> s)
          p.Ir.steps;
    }
  in
  Alcotest.(check (option int)) "padded plan gap" (Some 1)
    (Pc.sweep_gap padded);
  check_fires "padded plan" "PLAN005" (errors (Pc.verify padded))

(* ---- seeded defects vs their clean counterparts ---- *)

let test_defect_fixture_pairs () =
  (* each plan fixture fires its rule while the clean plan it was
     derived from verifies silently — the analysis discriminates, it
     does not just complain *)
  let clean name () = Pc.verify (recorded name) in
  let fires = [
    ("plan-partition-overlap", "PLAN001", Check.Fixtures.plan_partition_overlap,
     clean "pooled-axpy");
    ("plan-aliased-output", "PLAN002", Check.Fixtures.plan_aliased_output,
     clean "cg-tail-fused");
    ("plan-tail-aliased", "PLAN002", Check.Fixtures.plan_tail_aliased,
     clean "wilson-hop-tail");
    ("plan-wrong-block", "PLAN007", Check.Fixtures.plan_wrong_block,
     clean "cg-tail-fused");
    ("plan-tiny-pooled", "PLAN008", Check.Fixtures.plan_tiny_pooled,
     clean "pooled-axpy");
    ("plan-sweep-mismatch", "PLAN005", Check.Fixtures.plan_sweep_mismatch,
     clean "cg-tail-fused");
    ("plan-half-range", "PREC001", Check.Fixtures.plan_half_range,
     clean "mixed-fused");
    ("plan-stale-precision", "PREC003", Check.Fixtures.plan_stale_precision,
     clean "mixed-fused");
  ]
  in
  List.iter
    (fun (name, rule, defective, clean) ->
      check_fires ("fixture " ^ name) rule (defective ());
      check_clean ("clean counterpart of " ^ name) (clean ()))
    fires

let launch_plan ?geometry ?partition ?block n =
  let open Ir in
  plan ~n
    ~buffers:[ buffer ~prec:Double "x"; buffer ~prec:Double "y" ]
    ~steps:
      [
        Launch
          (kernel ?geometry ?partition ?block
             ~args:[ ("x", Read); ("y", Update); ("y2", Reduce) ]
             "axpy_norm2");
      ]
    "launch-fixture"

let test_partition_gap () =
  (* a dropped range is PLAN001 as surely as an overlap: the elements
     no chunk covers are never processed *)
  let gaps partition =
    List.map
      (fun (d : D.t) -> (d.D.rule, d.D.message))
      (errors (Pc.verify (launch_plan ~partition 4096)))
  in
  Alcotest.(check (list (pair string string))) "interior gap"
    [ ("PLAN001", "partition leaves [2048, 3072) uncovered") ]
    (gaps [| (0, 1024); (1024, 2048); (3072, 4096) |]);
  Alcotest.(check (list (pair string string))) "trailing gap"
    [ ("PLAN001", "partition leaves [3072, 4096) uncovered") ]
    (gaps [| (0, 1024); (1024, 3072) |]);
  Alcotest.(check (list (pair string string))) "exact tiling" []
    (gaps [| (0, 1024); (1024, 2048); (2048, 3072); (3072, 4096) |])

let test_launch_params () =
  (* PLAN007 is an error on a declared block other than the canonical
     one; PLAN008 is a warning on a multi-lane launch under the cutoff
     (the pre-fix wilson-hop catalog geometry), and silent at the
     cutoff or on one lane *)
  let severities rule p =
    List.filter_map
      (fun (d : D.t) -> if d.D.rule = rule then Some d.D.severity else None)
      (Pc.verify p)
  in
  let n = 1 lsl 16 and cutoff = Linalg.Field.parallel_cutoff in
  Alcotest.(check bool) "PLAN007 errors on a 4096-float block" true
    (severities "PLAN007" (launch_plan ~block:4096 n) = [ D.Error ]);
  Alcotest.(check int) "canonical block silent" 0
    (List.length (Pc.verify (launch_plan ~block:Linalg.Field.reduce_block n)));
  Alcotest.(check int) "undeclared block silent" 0
    (List.length (Pc.verify (launch_plan n)));
  Alcotest.(check bool) "4-lane hop over 256 sites warns" true
    (severities "PLAN008" (Record.wilson_hop ~dims:[| 4; 4; 4; 4 |] ~chunk:64 ~tail:false)
    = [ D.Warning ]);
  Alcotest.(check int) "4 lanes at the cutoff silent" 0
    (List.length (Pc.verify (launch_plan ~geometry:(4, cutoff / 4) cutoff)));
  Alcotest.(check int) "1 lane under the cutoff silent" 0
    (List.length (Pc.verify (launch_plan ~geometry:(1, 512) 512)))

(* The geometry a launch records is the one it ran: each launch
   decides its (pool, chunk) once for both. [launched f] records [f]'s
   one launch under a 2-lane default pool. *)
let launched f =
  let saved = Util.Pool.get_default () in
  Fun.protect
    ~finally:(fun () -> Util.Pool.set_default saved)
    (fun () ->
      Util.Pool.set_default (Util.Pool.shared ~domains:2);
      match snd (Prof.record f) with
      | [ Prof.Launch l ] -> l
      | _ -> Alcotest.fail "expected one launch")

let test_reduction_chunk_recorded () =
  (* a chunkless reduction forks whole blocks *)
  let v = Field.create (16 * Field.reduce_block) in
  Field.fill v 1.;
  match (launched (fun () -> ignore (Field.norm2 v : float))).Prof.geometry with
  | Some (lanes, chunk) ->
    Alcotest.(check int) "norm2 on 2 lanes" 2 lanes;
    Alcotest.(check int)
      (Printf.sprintf "norm2 chunk %d counts whole blocks" chunk)
      0 (chunk mod Field.reduce_block)
  | None -> Alcotest.fail "norm2 over the cutoff recorded as serial"

let test_batched_hop_lanes_recorded () =
  (* the batch pools on its total floats while one column is under
     the cutoff *)
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  let w = Dirac.Wilson.of_geometry geom (Lattice.Gauge.random geom (Util.Rng.create 3)) in
  let col = Lattice.Geometry.volume geom * Dirac.Wilson.floats_per_site in
  let k = (Field.parallel_cutoff / col) + 1 in
  Alcotest.(check bool) "one column under the cutoff" true (col < Field.parallel_cutoff);
  let srcs = Array.init k (fun _ -> Field.create col) in
  let dsts = Array.init k (fun _ -> Field.create col) in
  Alcotest.(check (option int)) "batched hop records the lanes it ran on" (Some 2)
    (Option.map fst (launched (fun () -> Dirac.Wilson.hop_multi w ~srcs ~dsts)).Prof.geometry)

let test_undeclared_buffer () =
  let open Ir in
  let p =
    plan ~n:64
      ~buffers:[ buffer ~prec:Double "x" ]
      ~steps:[ Launch (kernel ~args:[ ("x", Read); ("ghost", Write) ] "axpy") ]
      "undeclared-fixture"
  in
  check_fires "undeclared buffer" "PLAN006" (Pc.verify p)

let test_quantize_block_mismatch () =
  let open Ir in
  let p =
    plan ~n:96
      ~buffers:[ buffer ~prec:(Half 24) "p" ]
      ~steps:[ Quantize { qbuf = "p"; qblock = 48 } ]
      "block-mismatch-fixture"
  in
  check_fires "quantize block mismatch" "PREC004" (Pc.verify p)

(* ---- lint-before-cache ---- *)

let test_lint_fusion () =
  (* every real candidate — all three modes crossed with the pool
     geometries — lints clean *)
  let module V = Autotune.Variants in
  List.iter
    (fun (plan : V.launch) ->
      Alcotest.(check (list string))
        (Printf.sprintf "candidate %s lints clean" (V.label plan))
        []
        (rules (Pc.lint_fusion ~n:65536 ~mode:plan.mode ~geometry:plan.geometry)))
    (V.space
       ~modes:Linalg.Fused.[ Unfused; Fused; Tail_fused ]
       ~geometries:(V.pool_geometries ~max_domains:4 ~n:65536 ())
       ());
  (* a degenerate geometry is rejected by the analyzer, in every mode *)
  List.iter
    (fun mode ->
      check_fires "degenerate chunk rejected" "PLAN001"
        (Pc.lint_fusion ~n:65536 ~mode ~geometry:(Some (4, 0))))
    Linalg.Fused.[ Unfused; Fused; Tail_fused ]

let test_tune_fusion_lints_before_cache () =
  (* a lint that rejects every fused candidate (both fused modes): the
     tuner must settle on an unfused winner and cache it under that
     label — a rejected plan never enters the search, hence never the
     cache *)
  let module V = Autotune.Variants in
  let tuner = Autotune.Tuner.create () in
  let lint (l : V.launch) =
    let recorded = Record.fusion_tail ~n:4096 ~mode:l.mode ~geometry:l.geometry in
    if List.exists (fun k -> String.starts_with ~prefix:"Fused." k) (launch_names recorded)
    then Some "rejected by test lint"
    else None
  in
  let plan = V.tune_fusion ~max_domains:2 ~lint tuner ~n:4096 in
  if plan.mode <> Linalg.Fused.Unfused then
    Alcotest.failf "lint rejected all fused candidates yet winner %s is fused"
      (V.label plan);
  (* the cached winner replayed on a second call is still unfused *)
  let plan' = V.tune_fusion ~max_domains:2 ~lint tuner ~n:4096 in
  Alcotest.(check string) "cached winner stable" (V.label plan) (V.label plan');
  (* a lint rejecting everything still leaves the serial-unfused
     baseline searchable (tuner honesty) *)
  let plan_base =
    V.tune_fusion ~max_domains:2 ~lint:(fun _ -> Some "rejected")
      (Autotune.Tuner.create ()) ~n:4096
  in
  Alcotest.(check string) "baseline survives a reject-all lint"
    (V.label V.baseline) (V.label plan_base)

(* ---- the recorder ---- *)

(* A small Schur-normal operator, its tail-carrying form and a source. *)
let schur () =
  let rng = Util.Rng.create 77 in
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  let params = Dirac.Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass:0.1 in
  let eo = Dirac.Mobius.of_geometry_eo params geom (Lattice.Gauge.random geom rng) in
  let b = Dirac.Mobius.create_eo_field eo in
  Field.gaussian rng b;
  let apply src dst = Dirac.Mobius.apply_schur_normal eo ~src ~dst in
  let apply_dot src dst =
    Dirac.Mobius.apply_schur_normal_tail eo ~src ~dst ~tail:(Linalg.Fused.tail ~dot:src ())
  in
  (apply, apply_dot, b)

let test_extra_sweep_fires () =
  (* a CG step that runs one more full-vector pass — |Ap|², which the
     recurrence never reads — is in the recording, so the recorded
     iteration has 3 sweeps against the model's 2. No table names the
     step: the code is the only description. *)
  let apply, apply_dot, b = schur () in
  let iteration apply_dot =
    let _, events =
      Prof.record (fun () ->
          Solver.Cg.solve ~fused:true ~apply_dot ~apply ~b ~tol:1e-12 ~max_iter:2
            ~flops_per_apply:0. ())
    in
    Record.plan ~fusion:true "cg-step" (Record.iteration events)
  in
  let padded =
    iteration (fun src dst ->
        let pap = apply_dot src dst in
        ignore (Field.norm2 dst : float);
        pap)
  in
  Alcotest.(check (option int)) "extra sweep: gap" (Some 1) (Pc.sweep_gap padded);
  check_fires "step with an extra norm2" "PLAN005" (Pc.verify padded);
  let real = iteration apply_dot in
  Alcotest.(check (option int)) "real step: gap" (Some 0) (Pc.sweep_gap real);
  Alcotest.(check (list string)) "real step: silent" [] (rules (Pc.verify real))

let test_recording_changes_no_bits () =
  let apply, apply_dot, b = schur () in
  let bits (x : Field.t) = Array.map Int64.bits_of_float (Field.to_array x) in
  let check what solve =
    let outside = solve () in
    let inside, events = Prof.record solve in
    if events = [] then Alcotest.failf "%s: nothing recorded" what;
    let (x, (s : Solver.Cg.stats)), (x', (s' : Solver.Cg.stats)) = (outside, inside) in
    Alcotest.(check bool) (what ^ ": x bitwise") true (bits x = bits x');
    Alcotest.(check bool) (what ^ ": stats") true
      ({ s with seconds = 0. } = { s' with seconds = 0. })
  in
  check "Cg.solve" (fun () ->
      Solver.Cg.solve ~apply ~b ~tol:1e-8 ~max_iter:200 ~flops_per_apply:1. ());
  check "Cg.solve tail-fused" (fun () ->
      Solver.Cg.solve ~fused:true ~apply_dot ~apply ~b ~tol:1e-8 ~max_iter:200
        ~flops_per_apply:1. ());
  check "Mixed.solve" (fun () ->
      Solver.Mixed.solve ~fused:true ~apply ~b ~flops_per_apply:1. ());
  (* a solve outside [record] leaves nothing for the next recording *)
  ignore (Solver.Cg.solve ~apply ~b ~tol:1e-8 ~max_iter:5 ~flops_per_apply:1. ());
  Alcotest.(check bool) "recorder off" false !Prof.on;
  Alcotest.(check int) "no launches left behind" 0
    (List.length (snd (Prof.record ignore)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "parser rejects malformed plans" `Quick test_parse_rejects;
    Alcotest.test_case "catalog round-trips exactly" `Quick test_catalog_roundtrip;
    Alcotest.test_case "catalog verifies clean" `Quick test_catalog_verifies;
    Alcotest.test_case "CG iteration records its kernels" `Quick
      test_cg_iteration_recorded;
    Alcotest.test_case "mixed inner iteration quantizes p, Ap, r" `Quick
      test_mixed_quantizes_recorded;
    Alcotest.test_case "bicgstab records its BLAS-1 sequence" `Quick
      test_bicgstab_recorded;
    Alcotest.test_case "sweep accounting: IR vs model vs host" `Quick
      test_sweep_accounting;
    Alcotest.test_case "seeded defects fire, clean counterparts verify" `Quick
      test_defect_fixture_pairs;
    Alcotest.test_case "partition gap rejected" `Quick test_partition_gap;
    Alcotest.test_case "launch block and pool cutoff" `Quick test_launch_params;
    Alcotest.test_case "a reduction records its chunk in blocks" `Quick
      test_reduction_chunk_recorded;
    Alcotest.test_case "a batched hop records its lanes" `Quick
      test_batched_hop_lanes_recorded;
    Alcotest.test_case "undeclared buffer rejected" `Quick test_undeclared_buffer;
    Alcotest.test_case "quantize block mismatch rejected" `Quick
      test_quantize_block_mismatch;
    Alcotest.test_case "fusion candidates lint clean" `Quick test_lint_fusion;
    Alcotest.test_case "tune_fusion lints before caching" `Quick
      test_tune_fusion_lints_before_cache;
    Alcotest.test_case "an extra sweep in the CG step fires PLAN005" `Quick
      test_extra_sweep_fires;
    Alcotest.test_case "recording changes no bits" `Quick
      test_recording_changes_no_bits;
  ]
