(* Static analyses over the plan IR: every rule here fires from the
   plan alone. It is the one analyzer for launch plans — the pooled,
   fused, batched and stencil launches a recording holds
   (Plan_record); halo post/complete windows are Halo_check's. Pass
   families:

   - PLAN001/002/006: effect and aliasing — pooled partitions must
     tile [0, n) with no overlap (racing writes) and no gap
     (unprocessed elements), a kernel's outputs must never alias
     another operand (Util.Prof.aliased over buffer names, the rule
     Field.launch checks at runtime through a storage probe), every
     step must reference declared buffers.

   - PLAN007/008: launch parameters — a declared reduction block must
     be the canonical Field.reduce_block (any other block associates
     the partials differently from the standalone reductions), and a
     pooled launch under Field.parallel_cutoff wastes its fork/join
     (a warning: the kernels themselves run such a launch serially).

   - PLAN005: model consistency — the IR's BLAS-1 sweep total must
     equal what Machine.Perf_model prices, exactly. The old
     stencil-tail exemption (model 2 fused sweeps, host executed 3) is
     gone: Wilson.hop_tail / Mobius.apply_schur_normal_tail ride the
     p·Ap reduction on the stencil's closing sweep, so any nonzero gap
     (sweep_gap below) is a live regression and errors.

   - PREC001-004: precision flow — an abstract interpretation over a
     magnitude-interval x quantization-error state per buffer,
     propagated through launches and quantize points, flagging
     half-codec overflow/underflow/dynamic-range violations and
     stale-precision reads. *)

open Plan_ir
module D = Diagnostic

let rules =
  [
    ("PLAN001", "pooled partition must tile [0, n) disjointly");
    ("PLAN002", "kernel output must not alias another operand");
    ("PLAN005", "IR BLAS-1 sweeps must match the performance model");
    ("PLAN006", "steps must reference declared buffers");
    ("PLAN007", "declared reduction block must be Field.reduce_block");
    ("PLAN008", "pooled launch below the parallel cutoff (wasted fork/join)");
    ("PREC001", "half-codec dynamic range must fit the int16 mantissa");
    ("PREC002", "half-codec block norm must not underflow float32");
    ("PREC003", "no kernel may mix stale and quantized half operands");
    ("PREC004", "quantize points must agree with declared half blocks");
  ]

(* Mirrors of Numeric_check's private codec bounds (the dynamic NUM004
   / NUM005 thresholds), applied here to abstract intervals. *)
let float32_max = 3.4028234e38
let float32_min_normal = 1.1754944e-38

let loc_of_step p i =
  match List.nth p.steps i with
  | Launch k -> Printf.sprintf "%s step %d (launch %s)" p.pname i k.kname
  | Quantize { qbuf; _ } ->
    Printf.sprintf "%s step %d (quantize %s)" p.pname i qbuf

(* ---- PLAN006: declared buffers ---- *)

let check_declared p =
  let declared name = Option.is_some (find_buffer p name) in
  (* reduction scalars are not vector buffers; they need no declaration *)
  let step_refs = function
    | Launch k ->
      List.filter_map
        (fun (name, role) -> if role = Reduce then None else Some name)
        k.args
    | Quantize { qbuf; _ } -> [ qbuf ]
  in
  List.concat
    (List.mapi
       (fun i step ->
         List.filter_map
           (fun name ->
             if declared name then None
             else
               Some
                 (D.error ~rule:"PLAN006" ~loc:(loc_of_step p i)
                    (Printf.sprintf "references undeclared buffer %s" name)
                    ~hint:"declare the buffer in the plan header"))
           (step_refs step))
       p.steps)

(* Concatenate [f ~loc k] over the plan's kernel launches. *)
let per_launch p f =
  List.concat
    (List.mapi
       (fun i -> function Launch k -> f ~loc:(loc_of_step p i) k | _ -> [])
       p.steps)

(* ---- PLAN001: partition geometry ---- *)

let effective_partition p k =
  match k.partition with
  | Some parts -> Some (Array.to_list parts)
  | None -> (
    match k.geometry with
    | None -> None
    | Some (_, chunk) ->
      if chunk <= 0 then Some [ (0, chunk) ] (* degenerate; flagged below *)
      else Some (Array.to_list (Util.Pool.chunks ~n:p.n ~chunk)))

let check_partitions p =
  per_launch p (fun ~loc k ->
      match effective_partition p k with
      | None -> []
      | Some parts ->
        let bad =
          List.filter_map
            (fun (lo, hi) ->
              if lo < 0 || hi <= lo || hi > p.n then
                Some
                  (D.error ~rule:"PLAN001" ~loc
                     (Printf.sprintf
                        "chunk [%d, %d) is not a valid slice of [0, %d)" lo hi
                        p.n)
                     ~hint:"chunk bounds must satisfy 0 <= lo < hi <= n")
              else None)
            parts
        in
        if bad <> [] then bad
        else begin
          let sorted = List.sort (fun (a, _) (b, _) -> compare a b) parts in
          let gap lo hi =
            [
              D.error ~rule:"PLAN001" ~loc
                (Printf.sprintf "partition leaves [%d, %d) uncovered" lo hi)
                ~hint:"chunks must tile the full index range";
            ]
          in
          let rec tile pos = function
            | [] -> if pos = p.n then [] else gap pos p.n
            | (lo, hi) :: rest ->
              if lo < pos then
                [
                  D.error ~rule:"PLAN001" ~loc
                    (Printf.sprintf
                       "chunk [%d, %d) overlaps the previous chunk ending at %d"
                       lo hi pos)
                    ~hint:
                      "two pool domains would race on the overlap: make the \
                       chunks disjoint";
                ]
              else if lo > pos then gap pos lo
              else tile hi rest
          in
          tile 0 sorted
        end)

(* ---- PLAN002: output aliasing ---- *)

let check_aliasing p =
  per_launch p (fun ~loc k ->
      Util.Prof.aliased snd (fun (a, _) (b, _) -> a = b) k.args
      |> List.map fst |> List.sort_uniq compare
      |> List.map (fun name ->
             D.error ~rule:"PLAN002" ~loc
               (Printf.sprintf "buffer %s appears as both an output and another operand"
                  name)
               ~hint:
                 "an in-place alias makes the fused result depend on evaluation \
                  order: give each role its own buffer"))

(* ---- PLAN007/PLAN008: launch block and pool width ---- *)

(* A reduction over any block but the canonical one associates its
   partials differently from Field.norm2/dot_re, so the launch is not
   bit-identical to the unfused sequence or the single-RHS path.
   PLAN008 reads [n] as floats, like Field.parallel_cutoff: every
   kernel runs a launch under the cutoff serially, so a pooled
   geometry there describes a launch the code never makes. *)
let check_launch_params p =
  per_launch p (fun ~loc k ->
      (match k.block with
      | Some b when b <> Linalg.Field.reduce_block ->
        [
          D.error ~rule:"PLAN007" ~loc
            (Printf.sprintf
               "reduction accumulates %d-float blocks where the standalone \
                reductions accumulate %d: the partials associate differently \
                and the result is not bit-identical"
               b Linalg.Field.reduce_block)
            ~hint:"reduce through Field.fold, whose blocks are Field.reduce_block";
        ]
      | _ -> [])
      @
      match k.geometry with
      | Some (d, _) when d > 1 && p.n < Linalg.Field.parallel_cutoff ->
        [
          D.warning ~rule:"PLAN008" ~loc
            (Printf.sprintf
               "%d-lane launch over %d floats is under Field.parallel_cutoff \
                (%d): the fork/join costs more than the parallelism recovers"
               d p.n Linalg.Field.parallel_cutoff)
            ~hint:"declare the launch serial, as the kernels run it";
        ]
      | _ -> [])

(* ---- PLAN005: sweep consistency against the performance model ---- *)

(* Derived, not hardcoded: IR sweep total minus the model's price for
   the plan's declared fusion mode. None when the plan is not
   model-priced. The stencil-tail fusion closed the one historically
   whitelisted gap, so the check below errors on ANY nonzero value —
   and neutron_check --plan fails the run on it too. *)
let sweep_gap p =
  match p.fusion with
  | None -> None
  | Some fused ->
    let ir =
      List.fold_left
        (fun acc -> function Launch k -> acc + k.sweeps | _ -> acc)
        0 p.steps
    in
    let model = int_of_float (Machine.Perf_model.blas1_sweeps ~fused) in
    Some (ir - model)

let check_sweeps p =
  match (p.fusion, sweep_gap p) with
  | None, _ | _, None | _, Some 0 -> []
  | Some fused, Some gap ->
    let model = int_of_float (Machine.Perf_model.blas1_sweeps ~fused) in
    [
      D.error ~rule:"PLAN005" ~loc:p.pname
        (Printf.sprintf
           "IR executes %d full-vector sweeps but the model prices %d (%s)"
           (model + gap) model
           (if fused then "fused" else "unfused"))
        ~hint:
          "the autotuner would mis-rank this plan: align the kernel sweeps \
           with Perf_model.blas1_sweeps (fused p·Ap must ride the stencil \
           tail, not run as a separate dot_re)";
    ]

(* ---- PREC001-004: precision flow ---- *)

type absval = {
  lo : float;  (* smallest nonzero magnitude bound *)
  hi : float;  (* largest magnitude bound *)
  err : float; (* accumulated quantization error bound *)
}

type bufstate = { interval : absval option; dirty : bool }

let check_precision p =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let state : (string, bufstate) Hashtbl.t = Hashtbl.create 7 in
  List.iter
    (fun b ->
      Hashtbl.replace state b.bname
        {
          interval =
            Option.map (fun (lo, hi) -> { lo; hi; err = 0. }) b.range;
          dirty = false;
        })
    p.buffers;
  let get name =
    Option.value ~default:{ interval = None; dirty = false }
      (Hashtbl.find_opt state name)
  in
  let is_half name =
    match find_buffer p name with
    | Some { prec = Half _; _ } -> true
    | _ -> false
  in
  List.iteri
    (fun i step ->
      match step with
      | Launch k ->
        let loc = loc_of_step p i in
        let reads =
          List.filter (fun (_, r) -> r = Read || r = Update) k.args
        in
        (* PREC003: a kernel mixing a half buffer that missed its codec
           pass with freshly quantized half data breaks the inner
           recurrence's invariant (all operands through the codec). A
           launch touching only unquantized data is a legal exact
           phase — the reliable update. *)
        let half_reads = List.filter (fun (name, _) -> is_half name) reads in
        let stale = List.filter (fun (name, _) -> (get name).dirty) half_reads
        and fresh =
          List.filter (fun (name, _) -> not (get name).dirty) half_reads
        in
        if stale <> [] && fresh <> [] then
          add
            (D.error ~rule:"PREC003" ~loc
               (Printf.sprintf
                  "half buffer %s is read past its quantize point alongside \
                   quantized operand %s"
                  (fst (List.hd stale))
                  (fst (List.hd fresh)))
               ~hint:
                 "insert the missing quantize before the kernel (the inner \
                  recurrence assumes every operand went through the codec)");
        (* interval propagation: outputs get a no-cancellation
           magnitude bound from the inputs they consume *)
        let in_ivs =
          List.filter_map (fun (name, _) -> (get name).interval)
            (List.filter (fun (_, r) -> r = Read) k.args)
        in
        let combined =
          match in_ivs with
          | [] -> None
          | _ ->
            Some
              {
                lo = List.fold_left (fun a v -> min a v.lo) infinity in_ivs;
                hi = List.fold_left (fun a v -> a +. v.hi) 0. in_ivs;
                err = List.fold_left (fun a v -> max a v.err) 0. in_ivs;
              }
        in
        List.iter
          (fun (name, role) ->
            if Util.Prof.writes role then begin
              let prev = get name in
              let interval =
                match (role, prev.interval, combined) with
                | Write, _, c -> c
                | Update, Some old, Some c ->
                  Some
                    {
                      lo = min old.lo c.lo;
                      hi = old.hi +. c.hi;
                      err = max old.err c.err;
                    }
                | Update, _, _ -> None
                | (Read | Reduce), _, _ -> assert false
              in
              Hashtbl.replace state name
                { interval; dirty = prev.dirty || is_half name }
            end)
          k.args
      | Quantize { qbuf; qblock } ->
        let loc = loc_of_step p i in
        (match find_buffer p qbuf with
        | None -> () (* PLAN006 already fired *)
        | Some { prec = Double | Single; _ } ->
          add
            (D.error ~rule:"PREC004" ~loc
               (Printf.sprintf "%s is not declared half-precision" qbuf)
               ~hint:"quantize points only apply to half-codec buffers")
        | Some { prec = Su3 codec; _ } ->
          add
            (D.error ~rule:"PREC004" ~loc
               (Printf.sprintf
                  "%s is a compressed gauge-link store (su3:%s), not a \
                   half-codec buffer"
                  qbuf
                  (Linalg.Su3_codec.name codec))
               ~hint:
                 "recon streams are reconstructed in registers, never \
                  quantized — drop the quantize point or retag the buffer")
        | Some { prec = Half declared; _ } ->
          if qblock <> declared then
            add
              (D.error ~rule:"PREC004" ~loc
                 (Printf.sprintf
                    "quantize block %d disagrees with %s's declared block %d"
                    qblock qbuf declared)
                 ~hint:"decode would use the wrong norm stride")
          else if qblock <= 0 || p.n mod qblock <> 0 then
            add
              (D.error ~rule:"PREC004" ~loc
                 (Printf.sprintf "block %d does not divide the plan length %d"
                    qblock p.n)
                 ~hint:"choose a block that tiles the field (24 = one site)"));
        let prev = get qbuf in
        (match prev.interval with
        | Some { lo; hi; _ } when hi > 0. ->
          if hi > float32_max then
            add
              (D.error ~rule:"PREC001" ~loc
                 (Printf.sprintf
                    "magnitude bound %g overflows the float32 block norm" hi)
                 ~hint:"rescale before quantizing (NUM004 at plan level)")
          else if hi < float32_min_normal *. 10. then
            add
              (D.error ~rule:"PREC002" ~loc
                 (Printf.sprintf
                    "magnitude bound %g underflows the float32 block norm: \
                     blocks decode to zeros"
                    hi)
                 ~hint:"rescale before quantizing (NUM005 at plan level)")
          else if lo > 0. && hi /. lo > 2. *. Linalg.Field.Half.max_q then
            add
              (D.error ~rule:"PREC001" ~loc
                 (Printf.sprintf
                    "dynamic range %g exceeds the int16 mantissa (%g): \
                     values near %g quantize to zero in a block whose norm \
                     is %g"
                    (hi /. lo)
                    (2. *. Linalg.Field.Half.max_q)
                    lo hi)
                 ~hint:
                   "assumes no cancellation: if the range is real, shrink \
                    the block or keep this buffer in single precision")
        | _ -> ());
        let interval =
          Option.map
            (fun v ->
              { v with err = v.hi /. (2. *. Linalg.Field.Half.max_q) })
            prev.interval
        in
        Hashtbl.replace state qbuf { interval; dirty = false })
    p.steps;
  List.rev !ds

let verify p =
  D.sort
    (check_declared p @ check_partitions p @ check_aliasing p
   @ check_launch_params p @ check_sweeps p @ check_precision p)

(* Lint one fusion-axis candidate and keep only the errors — stylistic
   warnings must not reject a legitimate plan. The plan is the
   recording of Autotune.Variants.run_fusion for the candidate, the
   runner the tuner times: Unfused and Tail_fused are model-priced
   (PLAN005 strict), Fused is the unpriced separate-dot tail.
   Autotune.Variants.tune_fusion runs this over its candidate space
   BEFORE Tuner.tune prices and caches a winner, so a plan the
   analyzer rejects can never be cached. The tuner takes the linter as
   a callback so a test can substitute a reject-all linter and prove
   the vetting happens before caching. *)
let lint_fusion ~n ~mode ~geometry =
  List.filter D.is_error (verify (Plan_record.fusion_tail ~n ~mode ~geometry))

(* The standard-suite pass: every recorded catalog plan must verify
   without a diagnostic, warnings included. *)
let catalog_diagnostics () =
  List.concat_map (fun (_, build) -> verify (build ())) Plan_record.catalog
