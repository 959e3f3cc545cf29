(* Lift the real front-ends into the plan IR. Each builder mirrors the
   step sequence its front-end executes — kernel rows come from the
   front-ends' own exported ground truth (Solver.Cg.tail_kernels,
   Solver.Mixed.inner_quantizes / reliable_update_kernels,
   Solver.Bicgstab.tail_kernels, Linalg.Fused.operand_roles) so the IR
   cannot silently drift from the code: the test suite asserts the
   extracted kernel sequences equal the exports, and Plan_check's
   sweep-consistency pass diffs the sweep totals against
   Machine.Perf_model. Stencil launches carry sweeps=0 because the
   model prices their traffic separately (bytes_per_site), not as
   BLAS-1 sweeps. *)

open Plan_ir

let r_ = Read
let w_ = Write
let u_ = Update
let red = Reduce

(* Zip front-end kernel rows with hand-written operand effects; a
   length or name mismatch means extraction drifted from the
   front-end — fail loudly, the fixtures and tests run every builder. *)
let zip_args what rows argss =
  if List.length rows <> List.length argss then
    invalid_arg
      (Printf.sprintf "Plan_extract.%s: %d kernel rows vs %d arg rows" what
         (List.length rows) (List.length argss))
  else
    List.map2
      (fun (name, sweeps) (args, coeff) -> kernel ~sweeps ~coeff ~args name)
      rows argss

(* Effects of the fused kernels come from the operand-role table, with
   plan-level buffer names substituted positionally and the reduction
   scalar appended. *)
let fused_args name ~buffers ~reduce =
  match Linalg.Fused.operand_roles name with
  | None -> invalid_arg ("Plan_extract.fused_args: unknown kernel " ^ name)
  | Some roles ->
    if List.length roles <> List.length buffers then
      invalid_arg ("Plan_extract.fused_args: arity mismatch for " ^ name)
    else
      List.map2
        (fun (_, is_out) buf -> (buf, if is_out then u_ else r_))
        roles buffers
      @ [ (reduce, red) ]

(* ---- CG ---- *)

(* The BLAS-1 tail of one CG iteration on buffers p/ap/x/r, driven by
   Cg.tail_kernels. Fused, the p·Ap reduction is NOT a tail row: it
   rides the stencil's closing sweep (Cg.solve's apply_dot), so the
   fused tail is exactly cg_update + xpay_dot. *)
let cg_tail_launches ~fused ?geometry () =
  let rows = Solver.Cg.tail_kernels ~fused in
  let argss =
    if fused then
      [
        (fused_args "cg_update" ~buffers:[ "p"; "ap"; "x"; "r" ] ~reduce:"r2", 1.0);
        (fused_args "xpay_dot" ~buffers:[ "r"; "p"; "r" ] ~reduce:"pr", 1.0);
      ]
    else
      [
        ([ ("p", r_); ("ap", r_); ("pap", red) ], 1.0);
        ([ ("p", r_); ("x", u_) ], 1.0);
        ([ ("ap", r_); ("r", u_) ], 1.0);
        ([ ("r", r_); ("r2", red) ], 1.0);
        ([ ("r", r_); ("p", u_) ], 1.0);
      ]
  in
  List.map
    (fun k -> Launch { k with geometry })
    (zip_args "cg_tail" rows argss)

let cg_buffers =
  [
    buffer ~prec:Double "p";
    buffer ~prec:Double "ap";
    buffer ~prec:Double "x";
    buffer ~prec:Double "r";
  ]

(* Just the vector tail, model-priced: what Autotune.Variants.run_fusion
   executes for the Unfused and Tail_fused modes, and what the PLAN005
   sweep cross-check diffs against Perf_model.blas1_sweeps — strict
   equality, both columns. *)
let cg_tail ?(n = 1 lsl 16) ?geometry ~fused () =
  plan ~fusion:fused ~n ~buffers:cg_buffers
    ~steps:(cg_tail_launches ~fused ?geometry ())
    (if fused then "cg-tail-fused" else "cg-tail")

(* The separate-dot fallback tail Autotune.Variants.run_fusion runs
   for the Fused (3-sweep) mode: a fused solve without a tail-capable
   operator keeps the p·Ap dot as its own sweep. Not model-priced (fusion =
   None — Perf_model has no 3-sweep column), but PLAN001/002 still vet
   the fused kernels' aliasing and association. *)
let cg_tail_separate ?(n = 1 lsl 16) ?geometry () =
  let rows =
    [ ("dot_re", 1); ("cg_update", 1); ("xpay_dot", 1) ]
  in
  let argss =
    [
      ([ ("p", r_); ("ap", r_); ("pap", red) ], 1.0);
      (fused_args "cg_update" ~buffers:[ "p"; "ap"; "x"; "r" ] ~reduce:"r2", 1.0);
      (fused_args "xpay_dot" ~buffers:[ "r"; "p"; "r" ] ~reduce:"pr", 1.0);
    ]
  in
  let steps =
    List.map
      (fun k -> Launch { k with geometry })
      (zip_args "cg_tail_separate" rows argss)
  in
  plan ~n ~buffers:cg_buffers ~steps "cg-tail-separate"

(* One full CG iteration: the Schur-normal stencil (sweeps=0 — its
   traffic is priced per site by the model, not as a BLAS-1 sweep)
   followed by the tail. Fused, the stencil is the tail-capable
   variant: it additionally reduces p·Ap through the canonical blocked
   reduction in its closing sweep (Mobius.apply_schur_normal_tail). *)
let cg_stencil ~fused =
  if fused then
    Launch
      (kernel ~sweeps:0 ~block:Linalg.Field.reduce_block
         ~args:[ ("p", r_); ("ap", w_); ("pap", red) ]
         "schur_normal_tail")
  else Launch (kernel ~sweeps:0 ~args:[ ("p", r_); ("ap", w_) ] "schur_normal")

let cg_iteration ?(n = 1 lsl 16) ?geometry ~fused () =
  plan ~fusion:fused ~n ~buffers:cg_buffers
    ~steps:(cg_stencil ~fused :: cg_tail_launches ~fused ?geometry ())
    (if fused then "cg-fused" else "cg")

(* ---- Mixed (double-half with reliable updates) ---- *)

let mixed_buffers ~range ~block =
  [
    buffer ~prec:Double ~range "b";
    buffer ~prec:Double "x";
    buffer ~prec:Double "r";
    buffer ~prec:Double "xs";
    buffer ~prec:(Half block) "p";
    buffer ~prec:(Half block) "ap";
    buffer ~prec:(Half block) "rs";
  ]

(* One inner sloppy iteration, quantize points exactly where
   Mixed.solve places them (Mixed.inner_quantizes = p, ap, rs). *)
let mixed_inner_steps ~fused ~block =
  let q buf = Quantize { qbuf = buf; qblock = block } in
  let update =
    if fused then
      [
        Launch
          (kernel ~sweeps:1
             ~args:(fused_args "cg_update" ~buffers:[ "p"; "ap"; "xs"; "rs" ] ~reduce:"r2_pre")
             "cg_update");
      ]
    else
      [
        Launch (kernel ~sweeps:1 ~args:[ ("p", r_); ("xs", u_) ] "axpy");
        Launch (kernel ~sweeps:1 ~args:[ ("ap", r_); ("rs", u_) ] "axpy");
      ]
  in
  let close =
    if fused then
      [
        Launch
          (kernel ~sweeps:1
             ~args:(fused_args "xpay_dot" ~buffers:[ "rs"; "p"; "rs" ] ~reduce:"pr")
             "xpay_dot");
      ]
    else [ Launch (kernel ~sweeps:1 ~args:[ ("rs", r_); ("p", u_) ] "xpay") ]
  in
  [
    q "p";
    Launch (kernel ~sweeps:0 ~args:[ ("p", r_); ("ap", w_) ] "schur_normal");
    q "ap";
    Launch (kernel ~sweeps:1 ~args:[ ("p", r_); ("ap", r_); ("pap", red) ] "dot_re");
  ]
  @ update
  @ [
      q "rs";
      Launch (kernel ~sweeps:1 ~args:[ ("rs", r_); ("rs2", red) ] "norm2");
    ]
  @ close

(* The reliable update: promote the sloppy solution, recompute the
   residual exactly in double — deliberately no quantize (ap is used
   as plain double scratch here; the precision-flow pass understands
   an exact phase that does not mix with quantized reads). *)
let mixed_reliable_steps ~fused =
  let rows = Solver.Mixed.reliable_update_kernels ~fused in
  let argss =
    if fused then
      [
        ([ ("xs", r_); ("x", u_) ], 1.0);
        ([ ("b", r_); ("r", w_) ], 1.0);
        (fused_args "axpy_norm2" ~buffers:[ "ap"; "r" ] ~reduce:"r2", 1.0);
      ]
    else
      [
        ([ ("xs", r_); ("x", u_) ], 1.0);
        ([ ("b", r_); ("ap", r_); ("r", w_) ], 1.0);
        ([ ("r", r_); ("r2", red) ], 1.0);
      ]
  in
  let blas1 = List.map (fun k -> Launch k) (zip_args "mixed_reliable" rows argss) in
  match blas1 with
  | promote :: rest ->
    promote
    :: Launch (kernel ~sweeps:0 ~args:[ ("x", r_); ("ap", w_) ] "schur_normal")
    :: rest
  | [] -> []

(* Full mixed plan: outer residual init, inner-cycle seed (copy +
   quantize), one inner iteration, one reliable update. [range] is the
   abstract magnitude interval of the source at entry — the seed of
   the precision-flow pass. *)
let mixed ?(n = 24 * 4096) ?(range = (1e-2, 1e1))
    ?(block = Solver.Mixed.default_config.Solver.Mixed.block) ~fused () =
  let steps =
    [
      Launch (kernel ~sweeps:1 ~args:[ ("b", r_); ("r", w_) ] "blit");
      Launch (kernel ~sweeps:1 ~args:[ ("r", r_); ("rs", w_) ] "blit");
      Quantize { qbuf = "rs"; qblock = block };
      Launch (kernel ~sweeps:1 ~args:[ ("rs", r_); ("p", w_) ] "blit");
      Launch (kernel ~sweeps:1 ~args:[ ("rs", r_); ("rs2", red) ] "norm2");
    ]
    @ mixed_inner_steps ~fused ~block
    @ mixed_reliable_steps ~fused
  in
  plan ~n ~buffers:(mixed_buffers ~range ~block) ~steps
    (if fused then "mixed-fused" else "mixed")

(* ---- BiCGStab ---- *)

let bicgstab_buffers =
  List.map
    (fun name -> buffer ~prec:Double name)
    [ "b"; "x"; "r"; "r_hat"; "p"; "v"; "s"; "t" ]

(* One full iteration, both stabilizer halves; the BLAS-1 rows come
   from Bicgstab.tail_kernels, the two stencil applies are inserted
   where Bicgstab.solve runs them. *)
let bicgstab_iteration ?(n = 1 lsl 16) ~fused () =
  let rows = Solver.Bicgstab.tail_kernels ~fused in
  let update_args out =
    if fused then [ (fused_args "caxpy_norm2" ~buffers:[ (if out = "s" then "v" else "t"); out ] ~reduce:(out ^ "2"), 1.0) ]
    else
      [
        ([ ((if out = "s" then "v" else "t"), r_); (out, u_) ], 1.0);
        ([ (out, r_); (out ^ "2", red) ], 1.0);
      ]
  in
  let argss =
    [
      ([ ("r_hat", r_); ("v", r_); ("rhv", red) ], 1.0);
      ([ ("r", r_); ("s", w_) ], 1.0);
    ]
    @ update_args "s"
    @ [
        ([ ("t", r_); ("tt", red) ], 1.0);
        ([ ("t", r_); ("s", r_); ("ts", red) ], 1.0);
        ([ ("p", r_); ("x", u_) ], 1.0);
        ([ ("s", r_); ("x", u_) ], 1.0);
        ([ ("s", r_); ("r", w_) ], 1.0);
      ]
    @ update_args "r"
    @ [
        ([ ("r_hat", r_); ("r", r_); ("rho", red) ], 1.0);
        ([ ("v", r_); ("p", u_) ], 1.0);
        ([ ("r", r_); ("p", u_) ], 1.0);
      ]
  in
  let blas1 = List.map (fun k -> Launch k) (zip_args "bicgstab" rows argss) in
  let apply src dst =
    Launch (kernel ~sweeps:0 ~args:[ (src, r_); (dst, w_) ] "apply")
  in
  (* apply p v before the r_hat·v dot; apply s t before |t|² *)
  let rec insert_applies = function
    | Launch k :: rest when k.kname = "cdot" && List.mem_assoc "v" k.args ->
      apply "p" "v" :: Launch k :: insert_applies rest
    | Launch k :: rest when k.kname = "norm2" && List.mem_assoc "t" k.args ->
      apply "s" "t" :: Launch k :: insert_applies rest
    | s :: rest -> s :: insert_applies rest
    | [] -> []
  in
  plan ~n ~buffers:bicgstab_buffers ~steps:(insert_applies blas1)
    (if fused then "bicgstab-fused" else "bicgstab")

(* ---- Domain-wall solve (Schur composition) ---- *)

let dwf ?(n = 24 * 4096) ?(mixed_precision = false) ~fused () =
  let pre =
    [
      Launch
        (kernel ~sweeps:1
           ~args:[ ("rhs", r_); ("rhs_even", w_); ("rhs_odd", w_) ]
           "split_eo");
      Launch
        (kernel ~sweeps:1
           ~args:[ ("rhs_even", r_); ("rhs_odd", r_); ("yprime", w_) ]
           "prepare_rhs");
      Launch
        (kernel ~sweeps:1 ~args:[ ("yprime", r_); ("b", w_) ]
           "apply_schur_dagger");
    ]
  in
  let inner =
    if mixed_precision then
      let block = Solver.Mixed.default_config.Solver.Mixed.block in
      [
        Launch (kernel ~sweeps:1 ~args:[ ("b", r_); ("r", w_) ] "blit");
        Launch (kernel ~sweeps:1 ~args:[ ("r", r_); ("rs", w_) ] "blit");
        Quantize { qbuf = "rs"; qblock = block };
        Launch (kernel ~sweeps:1 ~args:[ ("rs", r_); ("p", w_) ] "blit");
      ]
      @ mixed_inner_steps ~fused ~block
      @ mixed_reliable_steps ~fused
    else cg_stencil ~fused :: cg_tail_launches ~fused ()
  in
  let post =
    [
      Launch
        (kernel ~sweeps:1
           ~args:[ ("rhs_even", r_); ("x", r_); ("x_even", w_) ]
           "reconstruct_even");
      Launch
        (kernel ~sweeps:1
           ~args:[ ("x_even", r_); ("x", r_); ("x_full", w_) ]
           "merge_eo");
    ]
  in
  let block = Solver.Mixed.default_config.Solver.Mixed.block in
  let buffers =
    List.map
      (fun name -> buffer ~prec:Double name)
      [ "rhs"; "rhs_even"; "rhs_odd"; "yprime"; "x_even"; "x_full" ]
    @ (if mixed_precision then mixed_buffers ~range:(1e-2, 1e1) ~block
       else buffer ~prec:Double ~range:(1e-2, 1e1) "b" :: cg_buffers)
  in
  plan ~n ~buffers ~steps:(pre @ inner @ post)
    (if mixed_precision then "dwf-mixed" else "dwf")

(* ---- Stencil hop launches (pooled Field/Dirac kernels) ---- *)

(* The pooled hop defaults describe a launch Wilson.hop / hop_tail
   really pool: 2048 sites is 49152 floats, above Field.parallel_cutoff
   (a smaller pooled launch is a PLAN008 warning — the kernels run it
   serially), split into 12288-float chunks of 512 sites, two whole
   256-site tail tiles. *)
let wilson_hop ?(sites = 2048) ?(geometry = (4, 12288)) () =
  let n = sites * 24 in
  plan ~n
    ~buffers:
      [
        buffer ~prec:Double "u";
        buffer ~prec:Double "src";
        buffer ~prec:Double "dst";
      ]
    ~steps:
      [
        Launch
          (kernel ~geometry ~sweeps:1
             ~args:[ ("u", r_); ("src", r_); ("dst", w_) ]
             "wilson_hop");
      ]
    "wilson-hop"

(* The tail-fused Wilson hop (Wilson.hop_tail): one launch that writes
   the stencil result and, per 256-site tile, applies the optional
   xpay to a separate output buffer and reduces the dot against q
   through the canonical 2048-float blocks — sweeps stay 0 (stencil
   traffic is priced per site; the tail reads ride its closing sweep).
   [out] must be a distinct buffer from [dst]: the fused loop reads
   the freshly written stencil block while updating out, so aliasing
   them is a read-write hazard (the seeded plan_tail_aliased fixture,
   PLAN002). *)
let wilson_hop_tail ?(sites = 2048) ?(geometry = (4, 12288)) () =
  let n = sites * 24 in
  plan ~n
    ~buffers:
      [
        buffer ~prec:Double "u";
        buffer ~prec:Double "src";
        buffer ~prec:Double "dst";
        buffer ~prec:Double "out";
        buffer ~prec:Double "q";
      ]
    ~steps:
      [
        Launch
          (kernel ~geometry ~sweeps:0 ~block:Linalg.Field.reduce_block
             ~args:
               [
                 ("u", r_);
                 ("src", r_);
                 ("dst", w_);
                 ("out", u_);
                 ("q", r_);
                 ("dot", red);
               ]
             "wilson_hop_tail");
      ]
    "wilson-hop-tail"

(* The batched multi-RHS hop (Wilson.hop_multi): one launch reads the
   gauge field once and streams k src/dst spinor pairs through it —
   the per-RHS buffers are declared individually so the aliasing pass
   vets every dst against every src and the other dsts. Stencil
   traffic is priced per site by Perf_model.mrhs_bytes_per_site (the
   link term amortized k-fold), not as BLAS-1 sweeps. *)
let wilson_hop_multi ?(k = 4) ?(sites = 256) ?geometry () =
  if k < 1 then invalid_arg "Plan_extract.wilson_hop_multi: k must be >= 1";
  let n = sites * 24 in
  let srcs = List.init k (Printf.sprintf "src%d") in
  let dsts = List.init k (Printf.sprintf "dst%d") in
  plan ~n
    ~buffers:
      (buffer ~prec:Double "u"
      :: List.map (fun b -> buffer ~prec:Double b) (srcs @ dsts))
    ~steps:
      [
        Launch
          (kernel ?geometry ~sweeps:1
             ~args:
               (("u", r_)
               :: (List.map (fun s -> (s, r_)) srcs
                  @ List.map (fun d -> (d, w_)) dsts))
             "wilson_hop_multi");
      ]
    "wilson-hop-multi"

(* The compressed-gauge batched hop (Wilson.hop_multi on a
   Lattice.Recon store): identical effect shape to wilson_hop_multi,
   but the gauge buffer carries its codec as a precision tag — the
   precision pass knows it is a register-reconstructed stream, never a
   quantize target (PREC004 fires on a Quantize step against it). The
   range seeds the magnitude interval: SU(3) entries are bounded by 1,
   and the codec's round-trip bound is the floor of meaningful
   magnitudes. *)
let wilson_hop_recon ?(recon = Linalg.Su3_codec.Recon12) ?(k = 4)
    ?(sites = 256) ?geometry () =
  if k < 1 then invalid_arg "Plan_extract.wilson_hop_recon: k must be >= 1";
  let n = sites * 24 in
  let srcs = List.init k (Printf.sprintf "src%d") in
  let dsts = List.init k (Printf.sprintf "dst%d") in
  plan ~n
    ~buffers:
      (buffer ~prec:(Su3 recon)
         ~range:(max 1e-30 (Linalg.Su3_codec.round_trip_bound recon), 1.)
         "u"
      :: List.map (fun b -> buffer ~prec:Double b) (srcs @ dsts))
    ~steps:
      [
        Launch
          (kernel ?geometry ~sweeps:1
             ~args:
               (("u", r_)
               :: (List.map (fun s -> (s, r_)) srcs
                  @ List.map (fun d -> (d, w_)) dsts))
             "wilson_hop_recon");
      ]
    "wilson-hop-recon"

(* Effects of the batched BLAS-1 kernels from Multi_blas's own
   operand-role table — same discipline as [fused_args]. *)
let multi_args name ~buffers ~reduce =
  match Linalg.Multi_blas.operand_roles name with
  | None -> invalid_arg ("Plan_extract.multi_args: unknown kernel " ^ name)
  | Some roles ->
    if List.length roles <> List.length buffers then
      invalid_arg ("Plan_extract.multi_args: arity mismatch for " ^ name)
    else
      List.map2
        (fun (_, is_out) buf -> (buf, if is_out then u_ else r_))
        roles buffers
      @ [ (reduce, red) ]

(* The per-iteration BLAS-1 tail of Cg.solve_multi, driven by
   Cg.multi_tail_kernels: fused it is the two Multi_blas batch kernels
   (2 sweeps per vector — matching Perf_model.blas1_sweeps ~fused:true,
   so the PLAN005 cross-check must report a zero gap), unfused the
   five scalar kernels per RHS. Buffers name the per-RHS quadruple;
   the batch width multiplies volume, not sweep count. *)
let cg_tail_multi ?(n = 1 lsl 16) ?geometry ~fused () =
  let rows = Solver.Cg.multi_tail_kernels ~fused in
  let argss =
    if fused then
      [
        ( multi_args "multi_cg_update" ~buffers:[ "p"; "ap"; "x"; "r" ]
            ~reduce:"r2",
          1.0 );
        (multi_args "multi_xpay_dot" ~buffers:[ "r"; "p"; "r" ] ~reduce:"pr", 1.0);
      ]
    else
      [
        ([ ("p", r_); ("ap", r_); ("pap", red) ], 1.0);
        ([ ("p", r_); ("x", u_) ], 1.0);
        ([ ("ap", r_); ("r", u_) ], 1.0);
        ([ ("r", r_); ("r2", red) ], 1.0);
        ([ ("r", r_); ("p", u_) ], 1.0);
      ]
  in
  let steps =
    List.map
      (fun kr -> Launch { kr with geometry })
      (zip_args "cg_tail_multi" rows argss)
  in
  plan ~fusion:fused ~n ~buffers:cg_buffers ~steps
    (if fused then "cg-tail-multi-fused" else "cg-tail-multi")

(* ---- Deflated CG entry (Cg.solve ?deflate) ---- *)

(* The once-per-solve deflation prologue Deflate.augment + the exact
   residual refresh that follows it in Cg.solve: rank Galerkin
   coefficients v_i·r through the canonical blocked reduction, one
   Multi_blas.block_axpy launch folding all rank corrections into x in
   index order, then the stencil apply and the b − Ax subtraction that
   restart the residual. Not model-priced (fusion = None — the
   prologue is amortized over the campaign, not per iteration), but
   PLAN001/002 still vet the basis reads against the x update and the
   dst of the apply. *)
let cg_deflate ?(n = 1 lsl 16) ?(rank = 4) ?geometry () =
  if rank < 1 then invalid_arg "Plan_extract.cg_deflate: rank must be >= 1";
  let basis = List.init rank (Printf.sprintf "basis%d") in
  let dots =
    List.map
      (fun v ->
        Launch
          (kernel ~sweeps:1 ~block:Linalg.Field.reduce_block ?geometry
             ~args:[ (v, r_); ("r", r_); ("g_" ^ v, red) ]
             "dot_re"))
      basis
  in
  let axpy =
    Launch
      (kernel ~sweeps:1 ?geometry
         ~args:(List.map (fun v -> (v, r_)) basis @ [ ("x", u_) ])
         "block_axpy")
  in
  let refresh =
    [
      Launch (kernel ~sweeps:0 ~args:[ ("x", r_); ("ap", w_) ] "schur_normal");
      Launch
        (kernel ~sweeps:1 ~args:[ ("b", r_); ("ap", r_); ("r", w_) ] "sub");
    ]
  in
  plan ~n
    ~buffers:
      (List.map (fun v -> buffer ~prec:Double v) basis
      @ [
          buffer ~prec:Double "b";
          buffer ~prec:Double "x";
          buffer ~prec:Double "r";
          buffer ~prec:Double "ap";
        ])
    ~steps:(dots @ (axpy :: refresh))
    "deflate"

(* The Mobius 5D hop is one stencil launch partitioned over 4D sites
   (every s-slice of a site on one lane): n counts sites, the canonical
   serial launch is one chunk. *)
let mobius_hop ?(n4 = 256) () =
  plan ~n:n4
    ~buffers:
      [
        buffer ~prec:Double "u";
        buffer ~prec:Double "src";
        buffer ~prec:Double "dst";
      ]
    ~steps:
      [
        Launch
          (kernel ~geometry:(1, n4) ~sweeps:1
             ~args:[ ("u", r_); ("src", r_); ("dst", w_) ]
             "mobius_hop_sites");
      ]
    "mobius-hop"

let pooled_axpy ?(n = 1 lsl 16) ?(geometry = (4, 4096)) () =
  plan ~n
    ~buffers:[ buffer ~prec:Double "x"; buffer ~prec:Double "y" ]
    ~steps:
      [
        Launch (kernel ~geometry ~sweeps:1 ~args:[ ("x", r_); ("y", u_) ] "axpy");
      ]
    "pooled-axpy"

(* ---- Vrank.Comm transport schedules ---- *)

let all_faces = Array.init 8 Fun.id

(* The fine-grained overlapped hop Dd_wilson.hop_overlapped runs: post
   all faces, interior while in flight, per-face-group completes each
   followed by the boundary sub-stencil reading only landed faces. *)
let dd_overlapped ?(transport = Machine.Transport.Staged) () =
  plan ~transport ~n:(256 * 24)
    ~buffers:[ buffer ~prec:Double "spinor"; buffer ~prec:Double "dst" ]
    ~steps:
      [
        Post { pbuf = "spinor"; faces = all_faces };
        Launch
          (kernel ~sweeps:1
             ~args:[ ("spinor", r_); ("dst", w_) ]
             "stencil_interior");
        Complete { cbuf = "spinor"; faces = [| 0; 1 |] };
        Launch
          (kernel ~sweeps:1
             ~args:[ ("spinor", r_); ("dst", u_) ]
             "stencil_faces_x");
        Complete { cbuf = "spinor"; faces = [| 2; 3; 4; 5; 6; 7 |] };
        Launch
          (kernel ~sweeps:1
             ~args:[ ("spinor", r_); ("dst", u_) ]
             "stencil_boundary");
      ]
    "dd-overlapped"

(* The zero-copy discipline: the payload aliases the sender's field
   until completion, so the window must close before any local write —
   this schedule completes everything before the boundary pass and
   never writes the posted buffer. *)
let dd_zero_copy () =
  plan ~transport:Machine.Transport.Zero_copy ~n:(256 * 24)
    ~buffers:[ buffer ~prec:Double "spinor"; buffer ~prec:Double "dst" ]
    ~steps:
      [
        Post { pbuf = "spinor"; faces = all_faces };
        Launch
          (kernel ~sweeps:1
             ~args:[ ("spinor", r_); ("dst", w_) ]
             "stencil_interior");
        Complete { cbuf = "spinor"; faces = all_faces };
        Launch
          (kernel ~sweeps:1
             ~args:[ ("spinor", r_); ("dst", u_) ]
             "stencil_boundary");
      ]
    "dd-zero-copy"

(* ---- Catalog ---- *)

let catalog : (string * (unit -> plan)) list =
  [
    ("cg", fun () -> cg_iteration ~fused:false ());
    ("cg-fused", fun () -> cg_iteration ~fused:true ());
    ("cg-tail", fun () -> cg_tail ~fused:false ());
    ("cg-tail-fused", fun () -> cg_tail ~fused:true ());
    ("cg-tail-separate", fun () -> cg_tail_separate ());
    ("mixed", fun () -> mixed ~fused:false ());
    ("mixed-fused", fun () -> mixed ~fused:true ());
    ("bicgstab", fun () -> bicgstab_iteration ~fused:false ());
    ("bicgstab-fused", fun () -> bicgstab_iteration ~fused:true ());
    ("dwf", fun () -> dwf ~fused:false ());
    ("dwf-mixed", fun () -> dwf ~mixed_precision:true ~fused:true ());
    ("wilson-hop", fun () -> wilson_hop ());
    ("wilson-hop-tail", fun () -> wilson_hop_tail ());
    ("wilson-hop-multi", fun () -> wilson_hop_multi ());
    ("wilson-hop-recon", fun () -> wilson_hop_recon ());
    ("cg-tail-multi", fun () -> cg_tail_multi ~fused:false ());
    ("deflate", fun () -> cg_deflate ());
    ("cg-tail-multi-fused", fun () -> cg_tail_multi ~fused:true ());
    ("mobius-hop", fun () -> mobius_hop ());
    ("pooled-axpy", fun () -> pooled_axpy ());
    ("dd-overlapped", fun () -> dd_overlapped ());
    ("dd-zero-copy", fun () -> dd_zero_copy ());
  ]

let find name = List.assoc_opt name catalog
