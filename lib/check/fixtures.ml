(* Seeded defect fixtures: twenty-two artifacts, each carrying
   exactly the class of bug its pass exists to catch (seven halo
   defects, each a recording of Dd_wilson or a mutation of one: stale
   subset ghost, early boundary read, send-buffer race, lost
   completion, zero-copy corruption, wasted double-buffering,
   transport/policy mismatch; eight plan-level defects caught
   statically from the IR alone, all but the partition overlap
   mutations of plans recorded from live code: aliased fused
   output, tail output aliasing the stencil dst, model/IR sweep
   mismatch, half-codec range violation, stale-precision read,
   non-canonical reduction block, under-cutoff pooled launch; one
   compressed gauge-link defect: non-unitary source link beyond the
   codec tolerance; two low-mode deflation defects: space stale
   against the live gauge configuration, basis drifted beyond its
   build bound). The CLI's --selftest and the test suite assert every
   one is detected, which keeps the checker honest — a pass that
   silently stops firing fails CI. *)

module P = Jobman.Pipeline
module F = Linalg.Field

type t = {
  name : string;
  defect : string;  (* what is wrong with the artifact *)
  expect : string;  (* rule id family expected to fire *)
  run : unit -> Diagnostic.t list;
}

let task ?(nodes = 1) ?(duration = 60.) ?(deps = []) ?(cpu_only = false) id =
  { P.id; nodes; duration; deps; cpu_only }

(* 1. A campaign whose tail contraction closes a dependency cycle. *)
let dag_cycle () =
  let tasks =
    [
      task 0 ~deps:[ 2 ];
      task 1 ~deps:[ 0 ];
      task 2 ~deps:[ 1 ];
      task 3;  (* innocent bystander, must still be schedulable *)
    ]
  in
  Dag_check.verify ~n_nodes:8 tasks

(* 2. A propagator task wider than the whole allocation. *)
let oversubscribed () =
  let tasks = [ task 0 ~nodes:64; task 1 ~deps:[ 0 ] ] in
  Dag_check.verify ~n_nodes:32 tasks

(* ---- 3. halo defects: recordings of Dd_wilson, most mutated ---- *)

module H = Halo_check
module T = Machine.Transport

(* The recording of [run] (default the blocking hop) under [transport]
   (default staged), mutated, replayed under the same transport. *)
let halo ?(transport = T.Staged) ?(run = H.Blocking) ?policy ?(mutate = Fun.id) () =
  let dd, ops = H.recorded transport run in
  H.verify_schedule ~transport ?policy dd.Vrank.Dd_wilson.dom (mutate ops)

let drop_zt_completes =
  List.filter (function H.Complete (Some [| f |]) -> f < 4 | _ -> true)

(* Rank 0 rewrites its local sites right after the first post. *)
let rec write_after_post = function
  | (H.Post _ as p) :: rest -> p :: H.Write [ 0 ] :: rest
  | op :: rest -> op :: write_after_post rest
  | [] -> []

(* The first boundary sub-stencil moved ahead of the complete of a
   face it reads; [before] holds the ops ahead of it, reversed. *)
let rec early_read before = function
  | (H.Stencil_faces fs as read) :: rest ->
    let rec back after = function
      | (H.Complete (Some [| f |]) as c) :: older when Array.mem f fs ->
        List.rev_append older (read :: c :: after)
      | op :: older -> back (op :: after) older
      | [] -> read :: after
    in
    back rest before
  | op :: rest -> early_read (op :: before) rest
  | [] -> List.rev before

(* 3. The blocking hop posting only the x/y faces, without its z/t
   completes: the full stencil reads z/t ghosts stale. *)
let stale_ghost () =
  let narrow = function H.Post None -> H.Post (Some [| 0; 1; 2; 3 |]) | op -> op in
  halo ~mutate:(fun ops -> List.map narrow (drop_zt_completes ops)) ()

(* 3a. The fine-grained hop reading a face before its complete: the
   classic "forgot the wait" interleaving bug. *)
let early_boundary_read () =
  halo ~run:(H.Overlapped Machine.Policy.Fine) ~mutate:(early_read []) ()

(* 3b. Rank 0 writes while its posted messages are in flight: the
   nonblocking send-buffer race. *)
let send_buffer_race () = halo ~mutate:write_after_post ()

(* 3c. The z/t completes never issued: the receivers' ghosts wait
   forever. *)
let lost_completion () = halo ~mutate:drop_zt_completes ()

(* 3d. 3b under zero-copy, where the in-flight payload aliases the
   writer's field: the delivered ghosts are corrupt for real, and the
   diagnostic names the first racing site's global coordinate. *)
let zero_copy_race () = halo ~transport:T.Zero_copy ~mutate:write_after_post ()

(* 3e. Double-buffered, unmutated: nothing writes between a post and
   its complete, so every rotation copy was paid for nothing. *)
let wasted_double_buffer () = halo ~transport:T.Double_buffered ()

(* 3f. A staged recording under a GDR policy: the real wire is
   zero-copy, so the staging model hides its send-buffer race. *)
let transport_mismatch () =
  halo
    ~policy:Machine.Policy.{ transfer = Gdr; granularity = Coarse }
    ()

(* 4. A mixed-precision solve whose operator manufactures a NaN — the
   half codec would silently launder it to zero; the instrumented
   kernels trap it at the encode boundary. *)
let nan_solve () =
  let n = 2 * 24 in
  let apply (x : F.t) (y : F.t) =
    for i = 0 to n - 1 do
      Bigarray.Array1.unsafe_set y i (2.5 *. Bigarray.Array1.unsafe_get x i)
    done;
    Bigarray.Array1.unsafe_set y 0 Float.nan
  in
  let b = F.create n in
  F.gaussian (Util.Rng.create 7) b;
  Numeric_check.probe_mixed_solve ~apply ~b ()

(* 5. A field whose half-codec blocks are invalid: one block loses
   23/24 values to the int16 mantissa floor, the next underflows the
   float32 norm entirely. *)
let bad_half_block () =
  let v = F.create 48 in
  F.fill v 1e-9;
  Bigarray.Array1.set v 0 1.0;  (* block 0: dynamic range 1e9 >> 32767 *)
  for i = 24 to 47 do
    Bigarray.Array1.set v i 1e-40  (* block 1: norm below float32 *)
  done;
  Numeric_check.half_blocks ~block:24 v

(* ---- 8. plan-level defects: the same bug classes caught statically,
   from the IR alone, before any kernel runs ---- *)

(* 8a. A pooled launch whose explicit partition double-covers a range:
   two domains would race on [512, 1024). *)
let plan_partition_overlap () =
  let open Plan_ir in
  let k =
    kernel
      ~partition:[| (0, 1024); (512, 2048); (2048, 4096) |]
      ~args:[ ("x", Read); ("y", Update) ]
      "axpy"
  in
  Plan_check.verify
    (plan ~n:4096
       ~buffers:[ buffer ~prec:Double "x"; buffer ~prec:Double "y" ]
       ~steps:[ Launch k ] "overlap-fixture")

(* The plan fixtures below mutate recorded catalog plans. [edit kname f]
   rewrites the args of each launch of [kname]. *)
let recorded name =
  match Plan_record.find name with
  | Some build -> build ()
  | None -> invalid_arg ("Fixtures: no catalog plan " ^ name)

let edit kname f (p : Plan_ir.plan) =
  let step = function
    | Plan_ir.Launch k when k.Plan_ir.kname = kname -> Plan_ir.Launch (f k)
    | s -> s
  in
  { p with steps = List.map step p.steps }

let arg_name (k : Plan_ir.kernel) i = fst (List.nth k.Plan_ir.args i)

(* 8b. The recorded fused CG tail (tripleCGUpdate, operands p, Ap, x,
   r) with the solution output handed Ap's buffer: the single pass
   updates x while the r-recurrence still reads Ap from it. *)
let plan_aliased_output () =
  Plan_check.verify
    (edit "Fused.cg_update"
       (fun k ->
         {
           k with
           args = List.mapi (fun i (nm, r) -> ((if i = 2 then arg_name k 1 else nm), r)) k.args;
         })
       (recorded "cg-tail-fused"))

(* 8b'. The recorded tail-fused Wilson hop with the tail's xpay output
   (the updated operand) renamed onto the stencil dst (the written
   one): the tail's closing loop would read the freshly written stencil
   block while overwriting it in place. Field.launch rejects the call
   at runtime; PLAN002 catches the duplicate name with a writing role
   from the IR alone. *)
let plan_tail_aliased () =
  let open Plan_ir in
  Plan_check.verify
    (edit "Wilson.hop_tail"
       (fun k ->
         let dst = fst (List.find (fun (_, r) -> r = Write) k.args) in
         { k with args = List.map (fun (nm, r) -> ((if r = Update then dst else nm), r)) k.args })
       (recorded "wilson-hop-tail"))

(* 8d. The recorded fused CG tail with an extra residual norm: a sweep
   count the model does not price, a nonzero Plan_check.sweep_gap. *)
let plan_sweep_mismatch () =
  let open Plan_ir in
  let p = recorded "cg-tail-fused" in
  let r =
    List.find_map
      (function Launch k when k.kname = "Fused.cg_update" -> Some (arg_name k 3) | _ -> None)
      p.steps
  in
  let extra = kernel ~args:[ (Option.get r, Read); ("s0", Reduce) ] "Field.norm2" in
  Plan_check.verify { p with steps = p.steps @ [ Launch extra ] }

(* 8e. The recorded mixed solve with its source b (v0, the first
   vector it touches) widened to 60 decades: the first quantize point
   cannot represent it in an int16 mantissa. *)
let plan_half_range () =
  let p = recorded "mixed-fused" in
  match p.Plan_ir.buffers with
  | b :: rest ->
    Plan_check.verify
      { p with buffers = { b with Plan_ir.range = Some (1e-30, 1e30) } :: rest }
  | [] -> []

(* 8f. The recorded mixed solve with the quantize that follows the
   stencil dropped: dot_re reads stale full-precision Ap alongside the
   quantized p. *)
let plan_stale_precision () =
  let open Plan_ir in
  let p = recorded "mixed-fused" in
  let rec drop = function
    | (Launch k as s) :: Quantize _ :: rest when k.kname = "Mobius.apply_schur_normal" ->
      s :: rest
    | s :: rest -> s :: drop rest
    | [] -> []
  in
  Plan_check.verify { p with steps = drop p.steps }

(* 8g. The recorded fused CG tail with cg_update folding its |r|^2
   partials over 4096-float blocks: every partial sums twice the
   canonical span, so the fused residual associates differently from
   the standalone norm2 — the bit-drift the fusion layer exists to rule
   out. *)
let plan_wrong_block () =
  Plan_check.verify
    (edit "Fused.cg_update"
       (fun k -> { k with Plan_ir.block = Some 4096 })
       (recorded "cg-tail-fused"))

(* 8h. A recorded 512-float axpy forked across 4 lanes: bit-identical
   but slower than the serial loop, and a launch the kernels never make
   on their own — they run anything under Field.parallel_cutoff
   serially. *)
let plan_tiny_pooled () = Plan_check.verify (Plan_record.pooled_axpy ~n:512 ~chunk:128)

(* ---- 9. compressed gauge-link (reconstruct) defects ---- *)

(* 9. A hot gauge field with its first link scaled by 1.3: U†U =
   1.69·1 on that link, so Recon12's rebuilt third row s·conj(r0×r1)
   is a different matrix than was stored — the unitarity contract the
   codecs rest on, RECON001's bug class. *)
let recon_nonunitary_link () =
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  let g = Lattice.Gauge.random geom (Util.Rng.create 11) in
  let d = Lattice.Gauge.data g in
  for k = 0 to 17 do
    Bigarray.Array1.set d k (1.3 *. Bigarray.Array1.get d k)
  done;
  Recon_check.verify_gauge ~recon:Linalg.Su3_codec.Recon12 g

(* Shared scaffolding of the deflation fixtures: a small SPD diagonal
   operator with a separated low mode, and a genuinely converged
   Lanczos space built on it. *)
let deflate_scaffold () =
  let n = 64 in
  let diag =
    Array.init n (fun i ->
        if i < 2 then 0.02 *. float_of_int (i + 1)
        else 1. +. (float_of_int i /. float_of_int n))
  in
  let apply (x : F.t) (y : F.t) =
    for i = 0 to n - 1 do
      Bigarray.Array1.set y i (diag.(i) *. Bigarray.Array1.get x i)
    done
  in
  let res =
    Solver.Lanczos.lowest ~tol:1e-8 ~rank:2 ~basis_size:8 ~apply ~n
      ~rng:(Util.Rng.create 13) ()
  in
  (apply, res)

(* 10a. A deflation space audited against a configuration it was not
   built from: the basis is perfectly orthonormal and converged — for
   the WRONG operator. Nothing numerical ever trips; only the hash
   comparison catches it (DEF001's bug class). *)
let deflate_stale_space () =
  let apply, res = deflate_scaffold () in
  let space = Solver.Deflate.of_lanczos ~config_hash:0x01d ~bound:1e-6 res in
  Deflate_check.verify_space ~config_hash:0x0dd ~apply space

(* 10b. A basis one vector of which was rescaled after the build —
   the in-place-mutation bug: v·v = 1.1² breaks orthonormality beyond
   the space's bound. |A v − λ v| stays within it (a rescaled
   eigenvector is still an eigenvector), so only the drift fires. *)
let deflate_drifted_basis () =
  let apply, (values, basis, stats) = deflate_scaffold () in
  F.scale 1.1 basis.(0);
  let space =
    Solver.Deflate.of_lanczos ~config_hash:0x5eed ~bound:1e-6
      (values, basis, stats)
  in
  Deflate_check.verify_space ~config_hash:0x5eed ~apply space

let all =
  [
    {
      name = "dag-cycle";
      defect = "campaign with a 3-task dependency cycle";
      expect = "CAMP003";
      run = dag_cycle;
    };
    {
      name = "oversubscribed";
      defect = "64-node task on a 32-node allocation";
      expect = "CAMP005";
      run = oversubscribed;
    };
    {
      name = "stale-ghost";
      defect = "recorded blocking hop posting only the x/y faces";
      expect = "HALO003";
      run = stale_ghost;
    };
    {
      name = "early-boundary-read";
      defect = "recorded fine hop reading a face before its complete";
      expect = "HALO007";
      run = early_boundary_read;
    };
    {
      name = "send-buffer-race";
      defect = "recorded blocking hop, rank 0 written after the post";
      expect = "HALO008";
      run = send_buffer_race;
    };
    {
      name = "lost-completion";
      defect = "recorded blocking hop without its z/t completes";
      expect = "HALO009";
      run = lost_completion;
    };
    {
      name = "zero-copy-race";
      defect = "recorded zero-copy hop, rank 0 written after the post";
      expect = "HALO011";
      run = zero_copy_race;
    };
    {
      name = "wasted-double-buffer";
      defect = "recorded double-buffered hop: no write races a post";
      expect = "HALO012";
      run = wasted_double_buffer;
    };
    {
      name = "transport-mismatch";
      defect = "staged recording verified under a GDR transfer policy";
      expect = "HALO013";
      run = transport_mismatch;
    };
    {
      name = "nan-solve";
      defect = "mixed solve against a NaN-producing operator";
      expect = "NUM001";
      run = nan_solve;
    };
    {
      name = "bad-half-block";
      defect = "half codec blocks with unrepresentable dynamic range";
      expect = "NUM003";
      run = bad_half_block;
    };
    {
      name = "plan-partition-overlap";
      defect = "pooled plan whose partition double-covers [512, 1024)";
      expect = "PLAN001";
      run = plan_partition_overlap;
    };
    {
      name = "plan-aliased-output";
      defect = "CG tail plan with the solution output aliasing the Ap input";
      expect = "PLAN002";
      run = plan_aliased_output;
    };
    {
      name = "plan-tail-aliased";
      defect = "hop-tail plan with the xpay output aliasing the stencil dst";
      expect = "PLAN002";
      run = plan_tail_aliased;
    };
    {
      name = "plan-sweep-mismatch";
      defect = "fused plan executing a sweep count the model does not price";
      expect = "PLAN005";
      run = plan_sweep_mismatch;
    };
    {
      name = "plan-half-range";
      defect = "mixed plan whose source range overflows the int16 mantissa";
      expect = "PREC001";
      run = plan_half_range;
    };
    {
      name = "plan-stale-precision";
      defect = "mixed plan reading Ap past a dropped quantize point";
      expect = "PREC003";
      run = plan_stale_precision;
    };
    {
      name = "plan-wrong-block";
      defect = "fused CG tail whose cg_update reduces 4096-float blocks";
      expect = "PLAN007";
      run = plan_wrong_block;
    };
    {
      name = "plan-tiny-pooled";
      defect = "512-float axpy forked across 4 lanes (under the cutoff)";
      expect = "PLAN008";
      run = plan_tiny_pooled;
    };
    {
      name = "recon-nonunitary-link";
      defect = "link scaled by 1.3 packed through the recon12 codec";
      expect = "RECON001";
      run = recon_nonunitary_link;
    };
    {
      name = "deflate-stale-space";
      defect = "converged deflation space audited against another configuration";
      expect = "DEF001";
      run = deflate_stale_space;
    };
    {
      name = "deflate-drifted-basis";
      defect = "basis vector rescaled by 1.1 after the Lanczos build";
      expect = "DEF002";
      run = deflate_drifted_basis;
    };
  ]

let find name = List.find_opt (fun f -> f.name = name) all
