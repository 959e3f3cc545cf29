(* Multi-vector fused BLAS-1 — QUDA's multi-blas idiom on the host:
   one launch streams a whole *set* of vectors, tiling the work so the
   per-vector updates and reductions interleave block-by-block instead
   of vector-by-vector. Two families:

   - [block_axpy a xs ys]: the tiled y[i] <- y[i] + sum_j a[i][j] x[j]
     (QUDA's multi_blas_quda caxpy tile). Element-wise, so for each
     output i it matches the sequential
       Field.axpy a.(i).(0) xs.(0) ys.(i); ...; axpy a.(i).(m-1) ...
     bit-for-bit (the j-accumulation order is the same per element).

   - batched reduction kernels [axpy_norm2]/[xpay_dot]/[cg_update]:
     the Fused kernels over vector sets. Slot i runs the Fused kernel's
     own range loop through [Field.fold_k] — the same canonical
     [Field.reduce_block]-float blocked, index-ordered reduction, the
     batch merely interleaving the block passes across RHS — so result
     i is the independent fused call by construction, serial or
     pooled, for any pool geometry. That is the invariant
     [Cg.solve_multi] leans on for per-RHS trajectory identity.

   Aliasing contract: like [Fused] but across the whole set — an
   output vector sharing storage with any input of a different role,
   or with another output, raises [Invalid_argument] (probed via
   [Fused.same_data]; Check.Plan_check PLAN002 is the static mirror). *)

open Bigarray

type t = Field.t

let check_batch name (vs : t array) =
  if Array.length vs = 0 then invalid_arg (name ^ ": empty batch");
  let n = Field.length vs.(0) in
  Array.iter
    (fun v ->
      if Field.length v <> n then invalid_arg (name ^ ": length mismatch"))
    vs;
  n

let check_width name k (vs : t array) =
  if Array.length vs <> k then invalid_arg (name ^ ": batch width mismatch")

let check_scalars name k (a : float array) =
  if Array.length a <> k then invalid_arg (name ^ ": coefficient count mismatch")

(* Outputs must be pairwise distinct and must not share data with any
   input of a different role. k is small (a batch width), so the
   quadratic probe is cheap. *)
let no_alias_sets name (outs : t array) (ins : t array) =
  Array.iteri
    (fun i o ->
      Array.iteri
        (fun j o' ->
          if i < j && Fused.same_data o o' then
            invalid_arg (name ^ ": two outputs share storage"))
        outs;
      Array.iter
        (fun inp ->
          if Fused.same_data o inp then
            invalid_arg (name ^ ": output aliases an input of a different role"))
        ins)
    outs

let finish kernel (vs : t array) (ss : float array) =
  Array.iter (Field.Sanitize.check_vec kernel) vs;
  Array.iter (fun s -> ignore (Field.Sanitize.check_scalar kernel s : float)) ss;
  ss

(* ---- batched axpy_norm2: ys.(i) <- ys.(i) + alphas.(i) xs.(i);
   returns per-RHS |y|^2 ---- *)

let axpy_norm2 ?pool ?chunk alphas (xs : t array) (ys : t array) =
  let name = "Multi_blas.axpy_norm2" in
  let k = Array.length ys in
  let n = check_batch name ys in
  check_width name k xs;
  ignore (check_batch name xs : int);
  if Field.length xs.(0) <> n then invalid_arg (name ^ ": length mismatch");
  check_scalars name k alphas;
  no_alias_sets name ys xs;
  finish name ys
    (Field.fold_k ?pool ?chunk ~n ~k (fun i ->
         Fused.axpy_norm2_term alphas.(i) xs.(i) ys.(i)))

(* ---- batched xpay_dot: ps.(i) <- xs.(i) + betas.(i) ps.(i);
   returns per-RHS p.q ---- *)

let xpay_dot ?pool ?chunk (xs : t array) betas (ps : t array) (qs : t array) =
  let name = "Multi_blas.xpay_dot" in
  let k = Array.length ps in
  let n = check_batch name ps in
  check_width name k xs;
  check_width name k qs;
  Array.iter
    (fun (v : t) ->
      if Field.length v <> n then invalid_arg (name ^ ": length mismatch"))
    xs;
  Array.iter
    (fun (v : t) ->
      if Field.length v <> n then invalid_arg (name ^ ": length mismatch"))
    qs;
  check_scalars name k betas;
  (* q is a read-only role: q = p (the monitor idiom) stays legal, so
     only the x inputs are in the alias cross-check *)
  no_alias_sets name ps xs;
  finish name ps
    (Field.fold_k ?pool ?chunk ~n ~k (fun i ->
         Fused.xpay_dot_term xs.(i) betas.(i) ps.(i) qs.(i)))

(* ---- batched cg_update: xs.(i) += alphas.(i) ps.(i);
   rs.(i) -= alphas.(i) aps.(i); returns per-RHS |r|^2 ---- *)

let cg_update ?pool ?chunk alphas (ps : t array) (aps : t array) (xs : t array)
    (rs : t array) =
  let name = "Multi_blas.cg_update" in
  let k = Array.length ps in
  let n = check_batch name ps in
  List.iter
    (fun vs ->
      check_width name k vs;
      Array.iter
        (fun (v : t) ->
          if Field.length v <> n then invalid_arg (name ^ ": length mismatch"))
        vs)
    [ aps; xs; rs ];
  check_scalars name k alphas;
  no_alias_sets name (Array.append xs rs) (Array.append ps aps);
  let ss =
    Field.fold_k ?pool ?chunk ~n ~k (fun i ->
        Fused.cg_update_term alphas.(i) ps.(i) aps.(i) xs.(i) rs.(i))
  in
  Array.iter (Field.Sanitize.check_vec name) xs;
  finish name rs ss

(* ---- the multi-blas tile: ys.(i) <- ys.(i) + sum_j a.(i).(j) xs.(j)
   No reduction, so the pooled path is race-free by element
   partitioning alone; per element the j-accumulation runs in index
   order, matching the sequential per-j Field.axpy sweeps to the
   bit. ---- *)

let block_axpy_range (a : float array array) (xs : t array) (ys : t array) lo
    hi =
  let m = Array.length xs in
  Array.iteri
    (fun i (y : t) ->
      let ai = a.(i) in
      for e = lo to hi - 1 do
        let acc = ref (Array1.unsafe_get y e) in
        for j = 0 to m - 1 do
          acc := !acc +. (ai.(j) *. Array1.unsafe_get xs.(j) e)
        done;
        Array1.unsafe_set y e !acc
      done)
    ys

let block_axpy ?pool ?chunk (a : float array array) (xs : t array)
    (ys : t array) =
  let name = "Multi_blas.block_axpy" in
  let n = check_batch name ys in
  ignore (check_batch name xs : int);
  if Field.length xs.(0) <> n then invalid_arg (name ^ ": length mismatch");
  if Array.length a <> Array.length ys then
    invalid_arg (name ^ ": coefficient rows must match outputs");
  Array.iter
    (fun row ->
      if Array.length row <> Array.length xs then
        invalid_arg (name ^ ": coefficient columns must match inputs"))
    a;
  no_alias_sets name ys xs;
  (match Field.launch_pool pool n with
  | Some p -> Util.Pool.parallel_for p ?chunk ~n (block_axpy_range a xs ys)
  | None -> block_axpy_range a xs ys 0 n);
  Array.iter (Field.Sanitize.check_vec name) ys

(* Operand-role table for the batched kernels, by plan-IR kernel name:
   (formal, is_output) in call order, one formal per *set*. The static
   analyzer expands sets to per-RHS buffers (src0.., dst0..) itself. *)
let operand_roles = function
  | "multi_axpy_norm2" -> Some [ ("x", false); ("y", true) ]
  | "multi_xpay_dot" -> Some [ ("x", false); ("p", true); ("q", false) ]
  | "multi_cg_update" ->
    Some [ ("p", false); ("ap", false); ("x", true); ("r", true) ]
  | "block_axpy" -> Some [ ("x", false); ("y", true) ]
  | _ -> None
