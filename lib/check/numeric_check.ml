(* Numeric sanitizer: the checker arm of Field.Sanitize plus static
   range analysis of the half fixed-point block codec. The paper's
   inner solver stores fields as int16 mantissas against a float32
   per-block norm; a block whose dynamic range exceeds the 15
   representable bits — or whose norm falls outside float32 — is
   silently destroyed by [quantize]. This pass finds such blocks
   before the codec does, and converts runtime NaN/Inf traps from the
   instrumented BLAS-1 kernels into diagnostics. *)

module F = Linalg.Field

let rules =
  [
    ("NUM001", "NaN present or produced in a kernel");
    ("NUM002", "Inf present or produced in a kernel");
    ("NUM003", "block dynamic range exceeds representable bits (values quantize to zero)");
    ("NUM004", "block norm overflows float32 storage");
    ("NUM005", "block norm underflows float32 (block decodes to zeros)");
    ("NUM006", "instrumented solve aborted");
  ]

let float32_max = 3.4028234e38
let float32_min_normal = 1.1754944e-38

let classify_rule x = if Float.is_nan x then "NUM001" else "NUM002"

let max_reported = 16

(* Scan a vector for non-finite entries. *)
let check_finite ~what (v : F.t) =
  let ds = ref [] in
  let seen = ref 0 in
  for i = 0 to F.length v - 1 do
    let x = Bigarray.Array1.unsafe_get v i in
    if not (Float.is_finite x) then begin
      incr seen;
      if !seen <= max_reported then
        ds :=
          Diagnostic.error ~rule:(classify_rule x)
            ~loc:(Printf.sprintf "%s[%d]" what i)
            (Printf.sprintf "non-finite value %h" x)
            ~hint:"trace the producing kernel with Field.Sanitize"
          :: !ds
    end
  done;
  if !seen > max_reported then
    ds :=
      Diagnostic.info ~rule:"NUM001" ~loc:what
        (Printf.sprintf "%d further non-finite entries suppressed"
           (!seen - max_reported))
      :: !ds;
  Diagnostic.sort (List.rev !ds)

(* Static range analysis of one field against the half codec's block
   structure: per block, the ratio between the largest and smallest
   nonzero magnitudes must stay within the int16 mantissa (values
   below max/(2·max_q) round to zero), and the block max-norm must be
   representable in float32. *)
let half_blocks ~block (v : F.t) =
  let n = F.length v in
  if block <= 0 || n mod block <> 0 then
    [
      Diagnostic.error ~rule:"NUM003" ~loc:"codec"
        (Printf.sprintf "block %d does not divide the vector length %d" block n)
        ~hint:"choose a block that tiles the field (24 = one site)";
    ]
  else begin
    let ds = ref [] in
    let add d = ds := d :: !ds in
    let flagged = ref 0 in
    let loc b = Printf.sprintf "block %d (floats %d..%d)" b (b * block) (((b + 1) * block) - 1) in
    for b = 0 to (n / block) - 1 do
      let base = b * block in
      let max_abs = ref 0. in
      let finite = ref true in
      for i = 0 to block - 1 do
        let x = Bigarray.Array1.unsafe_get v (base + i) in
        if not (Float.is_finite x) then finite := false;
        let a = abs_float x in
        if a > !max_abs then max_abs := a
      done;
      if not !finite then begin
        incr flagged;
        if !flagged <= max_reported then
          add
            (Diagnostic.error ~rule:"NUM004" ~loc:(loc b)
               "non-finite value poisons the block norm"
               ~hint:"the whole block decodes as garbage")
      end
      else if !max_abs > float32_max then begin
        incr flagged;
        if !flagged <= max_reported then
          add
            (Diagnostic.error ~rule:"NUM004" ~loc:(loc b)
               (Printf.sprintf "block max %g overflows the float32 norm" !max_abs)
               ~hint:"rescale the field before quantizing")
      end
      else if !max_abs > 0. && !max_abs < float32_min_normal *. 10. then begin
        incr flagged;
        if !flagged <= max_reported then
          add
            (Diagnostic.error ~rule:"NUM005" ~loc:(loc b)
               (Printf.sprintf
                  "block max %g underflows the float32 norm; the block \
                   decodes to zeros"
                  !max_abs)
               ~hint:"rescale the field before quantizing")
      end
      else if !max_abs > 0. then begin
        (* sub-resolution census: elements that round to mantissa 0 *)
        let floor_ = !max_abs /. (2. *. F.Half.max_q) in
        let lost = ref 0 and nonzero = ref 0 in
        for i = 0 to block - 1 do
          let a = abs_float (Bigarray.Array1.unsafe_get v (base + i)) in
          if a > 0. then begin
            incr nonzero;
            if a < floor_ then incr lost
          end
        done;
        if !nonzero > 0 then begin
          let frac = float_of_int !lost /. float_of_int !nonzero in
          if frac >= 0.5 then begin
            incr flagged;
            if !flagged <= max_reported then
              add
                (Diagnostic.error ~rule:"NUM003" ~loc:(loc b)
                   (Printf.sprintf
                      "dynamic range exceeds representable bits: %d/%d \
                       nonzero values quantize to zero"
                      !lost !nonzero)
                   ~hint:
                     "shrink the block so fewer floats share one norm, or \
                      rescale the data")
          end
          else if frac >= 0.25 then begin
            incr flagged;
            if !flagged <= max_reported then
              add
                (Diagnostic.warning ~rule:"NUM003" ~loc:(loc b)
                   (Printf.sprintf "%d/%d nonzero values quantize to zero"
                      !lost !nonzero))
          end
        end
      end
    done;
    if !flagged > max_reported then
      add
        (Diagnostic.info ~rule:"NUM003" ~loc:"codec"
           (Printf.sprintf "%d further flagged blocks suppressed"
              (!flagged - max_reported)));
    Diagnostic.sort (List.rev !ds)
  end

(* Run [f] with the instrumented Field kernels recording (not raising)
   and convert every trap into a diagnostic. *)
let sanitized ~what f =
  let v = F.Sanitize.scoped ~raise_on_trap:false f in
  (* one diagnostic per (kernel, rule): the first trap plus a count —
     a poisoned operator otherwise floods every later kernel call *)
  let order = ref [] and by_kernel = Hashtbl.create 8 in
  List.iter
    (fun (kernel, index, value) ->
      let rule = classify_rule value in
      let key = (kernel, rule) in
      match Hashtbl.find_opt by_kernel key with
      | Some (first_index, first_value, count) ->
        Hashtbl.replace by_kernel key (first_index, first_value, count + 1)
      | None ->
        Hashtbl.add by_kernel key (index, value, 1);
        order := key :: !order)
    (List.rev !F.Sanitize.recorded);
  let ds =
    List.rev_map
      (fun ((kernel, rule) as key) ->
        let index, value, count = Hashtbl.find by_kernel key in
        Diagnostic.error ~rule
          ~loc:
            (if index < 0 then Printf.sprintf "%s: %s" what kernel
             else Printf.sprintf "%s: %s[%d]" what kernel index)
          (Printf.sprintf "kernel produced non-finite value %h%s" value
             (if count > 1 then Printf.sprintf " (%d traps in this kernel)" count
              else ""))
          ~hint:"first offending kernel listed; upstream data or operator is bad")
      !order
  in
  let recorded = List.length !F.Sanitize.recorded in
  let ds =
    if !F.Sanitize.trap_count > recorded then
      Diagnostic.info ~rule:"NUM001" ~loc:what
        (Printf.sprintf "%d further traps unrecorded"
           (!F.Sanitize.trap_count - recorded))
      :: ds
    else ds
  in
  (v, Diagnostic.sort ds)

(* Instrumented mixed-precision solve: run the double-half CG with the
   sanitizer armed, trapping the first kernel that manufactures a
   NaN/Inf (e.g. an operator with a poisoned gauge link). *)
let probe_mixed_solve ~apply ~(b : F.t) () =
  try
    let _, ds =
      sanitized ~what:"mixed solve" (fun () ->
          Solver.Mixed.solve ~apply ~b ~flops_per_apply:0. ())
    in
    ds
  with Invalid_argument msg ->
    [ Diagnostic.error ~rule:"NUM006" ~loc:"mixed solve" msg ]
