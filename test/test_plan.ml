(* The static plan analyzer: IR round-trip (qcheck over random plans),
   extraction fidelity against the front-ends' own exported kernel
   sequences, the analysis rules on seeded-defect/clean plan pairs,
   the model/IR sweep cross-check, and the lint-before-cache contract
   of the fusion tuner. *)

module Ir = Check.Plan_ir
module Extract = Check.Plan_extract
module Pc = Check.Plan_check
module D = Check.Diagnostic

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
          let* coeff = oneof [ return 1.0; pos_float ] in
          return
            (Ir.Launch
               { Ir.kname; args; geometry; partition; block; sweeps; coeff })
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

(* ---- catalog: extraction + analysis ---- *)

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
    Extract.catalog

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
    Extract.catalog

(* ---- extraction fidelity: the IR against the front-end exports ---- *)

let launch_names p =
  List.filter_map
    (function Ir.Launch k -> Some k.Ir.kname | _ -> None)
    p.Ir.steps

let test_cg_tail_matches_export () =
  List.iter
    (fun fused ->
      Alcotest.(check (list string))
        (Printf.sprintf "cg tail (fused=%b) = Cg.tail_kernels" fused)
        (List.map fst (Solver.Cg.tail_kernels ~fused))
        (launch_names (Extract.cg_tail ~fused ())))
    [ false; true ]

let test_mixed_quantizes_match_export () =
  let p = Extract.mixed ~fused:true () in
  let quantized =
    List.filter_map
      (function Ir.Quantize { qbuf; _ } -> Some qbuf | _ -> None)
      p.Ir.steps
  in
  (* the inner iteration hits exactly Mixed.inner_quantizes, in order;
     the preamble's seed quantize of rs comes first *)
  List.iter
    (fun b ->
      if not (List.mem b quantized) then
        Alcotest.failf "mixed plan never quantizes %s" b)
    Solver.Mixed.inner_quantizes;
  Alcotest.(check (list string))
    "inner quantize order = Mixed.inner_quantizes"
    Solver.Mixed.inner_quantizes
    (match quantized with _seed :: inner -> inner | [] -> [])

let test_bicgstab_matches_export () =
  List.iter
    (fun fused ->
      let names =
        List.filter (fun k -> k <> "apply")
          (launch_names (Extract.bicgstab_iteration ~fused ()))
      in
      Alcotest.(check (list string))
        (Printf.sprintf "bicgstab BLAS-1 (fused=%b) = Bicgstab.tail_kernels"
           fused)
        (List.map fst (Solver.Bicgstab.tail_kernels ~fused))
        names)
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
      let plan = Extract.cg_tail ~fused () in
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
    (Pc.sweep_gap (Extract.cg_tail_separate ()));
  (* and a plan drifting off the model is a live PLAN005 error with
     the gap derived from the plan itself, never a whitelisted gap *)
  let p = Extract.cg_tail ~fused:true () in
  let padded =
    {
      p with
      Ir.steps =
        List.map
          (function
            | Ir.Launch k when k.Ir.kname = "xpay_dot" ->
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
  let fires = [
    ("plan-partition-overlap", "PLAN001", Check.Fixtures.plan_partition_overlap,
     fun () -> Pc.verify (Extract.pooled_axpy ()));
    ("plan-aliased-output", "PLAN002", Check.Fixtures.plan_aliased_output,
     fun () -> Pc.verify (Extract.cg_tail ~fused:true ()));
    ("plan-tail-aliased", "PLAN002", Check.Fixtures.plan_tail_aliased,
     fun () -> Pc.verify (Extract.wilson_hop_tail ()));
    ("plan-wrong-block", "PLAN007", Check.Fixtures.plan_wrong_block,
     fun () -> Pc.verify (Extract.cg_tail ~fused:true ()));
    ("plan-tiny-pooled", "PLAN008", Check.Fixtures.plan_tiny_pooled,
     fun () -> Pc.verify (Extract.pooled_axpy ()));
    ("plan-sweep-mismatch", "PLAN005", Check.Fixtures.plan_sweep_mismatch,
     fun () -> Pc.verify (Extract.cg_tail ~fused:true ()));
    ("plan-half-range", "PREC001", Check.Fixtures.plan_half_range,
     fun () -> Pc.verify (Extract.mixed ~fused:true ()));
    ("plan-stale-precision", "PREC003", Check.Fixtures.plan_stale_precision,
     fun () -> Pc.verify (Extract.mixed ~fused:true ()));
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
    (severities "PLAN008" (Extract.wilson_hop ~sites:256 ~geometry:(4, 1536) ())
    = [ D.Warning ]);
  Alcotest.(check int) "4 lanes at the cutoff silent" 0
    (List.length (Pc.verify (launch_plan ~geometry:(4, cutoff / 4) cutoff)));
  Alcotest.(check int) "1 lane under the cutoff silent" 0
    (List.length (Pc.verify (launch_plan ~geometry:(1, 512) 512)))

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
    if l.mode <> Linalg.Fused.Unfused then Some "rejected by test lint"
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

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "parser rejects malformed plans" `Quick test_parse_rejects;
    Alcotest.test_case "catalog round-trips exactly" `Quick test_catalog_roundtrip;
    Alcotest.test_case "catalog verifies clean" `Quick test_catalog_verifies;
    Alcotest.test_case "CG tail matches Cg.tail_kernels" `Quick
      test_cg_tail_matches_export;
    Alcotest.test_case "mixed quantize points match Mixed.inner_quantizes"
      `Quick test_mixed_quantizes_match_export;
    Alcotest.test_case "bicgstab matches Bicgstab.tail_kernels" `Quick
      test_bicgstab_matches_export;
    Alcotest.test_case "sweep accounting: IR vs model vs host" `Quick
      test_sweep_accounting;
    Alcotest.test_case "seeded defects fire, clean counterparts verify" `Quick
      test_defect_fixture_pairs;
    Alcotest.test_case "partition gap rejected" `Quick test_partition_gap;
    Alcotest.test_case "launch block and pool cutoff" `Quick test_launch_params;
    Alcotest.test_case "undeclared buffer rejected" `Quick test_undeclared_buffer;
    Alcotest.test_case "quantize block mismatch rejected" `Quick
      test_quantize_block_mismatch;
    Alcotest.test_case "fusion candidates lint clean" `Quick test_lint_fusion;
    Alcotest.test_case "tune_fusion lints before caching" `Quick
      test_tune_fusion_lints_before_cache;
  ]
