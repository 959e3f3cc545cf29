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
     the Fused kernels over vector sets. Each RHS i runs the *same*
     canonical [Field.reduce_block]-float blocked, index-ordered
     reduction as its single-vector [Linalg.Fused] twin — the batch
     merely interleaves the block passes across RHS — so result i is
     bit-identical to the independent fused call, serial or pooled,
     for any pool geometry. That is the invariant [Cg.solve_multi]
     leans on for per-RHS trajectory identity.

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

(* ---- the batched reduction engine ----
   Per-RHS [Field.block_fold] semantics, with the block loop hoisted
   outside the RHS loop so one pass over block [b] touches every
   vector's slice while it is hot. The single-block shortcut and the
   block-index-order fold are replicated exactly (including the
   [term i 0 n] direct return — no [0. +.] normalisation of a -0.
   partial), so result i is bit-identical to
   [Field.block_fold pool chunk ~n ~block:reduce_block (term i)]. *)
let batch_fold pool chunk ~n ~k term =
  let block = Field.reduce_block in
  let n_blocks = (n + block - 1) / block in
  if n_blocks <= 1 then
    Array.init k (fun i -> if n <= 0 then 0. else term i 0 n)
  else begin
    let partials = Array.make_matrix k n_blocks 0. in
    let fill blo bhi =
      for b = blo to bhi - 1 do
        let lo = b * block and hi = min n ((b + 1) * block) in
        for i = 0 to k - 1 do
          partials.(i).(b) <- term i lo hi
        done
      done
    in
    (match pool with
    | Some p ->
      let chunk_blocks = Option.map (fun c -> max 1 (c / block)) chunk in
      Util.Pool.parallel_for p ?chunk:chunk_blocks ~n:n_blocks fill
    | None -> fill 0 n_blocks);
    Array.init k (fun i ->
        let acc = ref 0. in
        for b = 0 to n_blocks - 1 do
          acc := !acc +. partials.(i).(b)
        done;
        !acc)
  end

let finish kernel (vs : t array) (ss : float array) =
  Array.iter (Field.Sanitize.check_vec kernel) vs;
  Array.iter (fun s -> ignore (Field.Sanitize.check_scalar kernel s : float)) ss;
  ss

(* ---- per-RHS range terms: exactly the Fused terms, per set slot ---- *)

let axpy_norm2_term alphas (xs : t array) (ys : t array) i lo hi =
  let alpha = alphas.(i) and x = xs.(i) and y = ys.(i) in
  let acc = ref 0. in
  for e = lo to hi - 1 do
    let ye = Array1.unsafe_get y e +. (alpha *. Array1.unsafe_get x e) in
    Array1.unsafe_set y e ye;
    acc := !acc +. (ye *. ye)
  done;
  !acc

let xpay_dot_term (xs : t array) betas (ps : t array) (qs : t array) i lo hi =
  let x = xs.(i) and beta = betas.(i) and p = ps.(i) and q = qs.(i) in
  let acc = ref 0. in
  for e = lo to hi - 1 do
    let pe = Array1.unsafe_get x e +. (beta *. Array1.unsafe_get p e) in
    Array1.unsafe_set p e pe;
    acc := !acc +. (pe *. Array1.unsafe_get q e)
  done;
  !acc

let cg_update_term alphas (ps : t array) (aps : t array) (xs : t array)
    (rs : t array) i lo hi =
  let alpha = alphas.(i) in
  let nalpha = -.alpha in
  let p = ps.(i) and ap = aps.(i) and x = xs.(i) and r = rs.(i) in
  let acc = ref 0. in
  for e = lo to hi - 1 do
    Array1.unsafe_set x e
      (Array1.unsafe_get x e +. (alpha *. Array1.unsafe_get p e));
    let re = Array1.unsafe_get r e +. (nalpha *. Array1.unsafe_get ap e) in
    Array1.unsafe_set r e re;
    acc := !acc +. (re *. re)
  done;
  !acc

(* ---- batched axpy_norm2: ys.(i) <- ys.(i) + alphas.(i) xs.(i);
   returns per-RHS |y|^2 ---- *)

let axpy_norm2_checked name alphas (xs : t array) (ys : t array) =
  let k = Array.length ys in
  let n = check_batch name ys in
  check_width name k xs;
  ignore (check_batch name xs : int);
  if Field.length xs.(0) <> n then invalid_arg (name ^ ": length mismatch");
  check_scalars name k alphas;
  no_alias_sets name ys xs;
  (n, k)

let axpy_norm2 alphas (xs : t array) (ys : t array) =
  let n, k = axpy_norm2_checked "Multi_blas.axpy_norm2" alphas xs ys in
  finish "Multi_blas.axpy_norm2" ys
    (batch_fold (Field.implicit_pool n) None ~n ~k
       (axpy_norm2_term alphas xs ys))

let axpy_norm2_with pool ?chunk alphas (xs : t array) (ys : t array) =
  let n, k = axpy_norm2_checked "Multi_blas.axpy_norm2" alphas xs ys in
  finish "Multi_blas.axpy_norm2" ys
    (batch_fold (Some pool) chunk ~n ~k (axpy_norm2_term alphas xs ys))

(* ---- batched xpay_dot: ps.(i) <- xs.(i) + betas.(i) ps.(i);
   returns per-RHS p.q ---- *)

let xpay_dot_checked name (xs : t array) betas (ps : t array) (qs : t array) =
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
  (n, k)

let xpay_dot (xs : t array) betas (ps : t array) (qs : t array) =
  let n, k = xpay_dot_checked "Multi_blas.xpay_dot" xs betas ps qs in
  finish "Multi_blas.xpay_dot" ps
    (batch_fold (Field.implicit_pool n) None ~n ~k
       (xpay_dot_term xs betas ps qs))

let xpay_dot_with pool ?chunk (xs : t array) betas (ps : t array) (qs : t array)
    =
  let n, k = xpay_dot_checked "Multi_blas.xpay_dot" xs betas ps qs in
  finish "Multi_blas.xpay_dot" ps
    (batch_fold (Some pool) chunk ~n ~k (xpay_dot_term xs betas ps qs))

(* ---- batched cg_update: xs.(i) += alphas.(i) ps.(i);
   rs.(i) -= alphas.(i) aps.(i); returns per-RHS |r|^2 ---- *)

let cg_update_checked name alphas (ps : t array) (aps : t array) (xs : t array)
    (rs : t array) =
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
  (n, k)

let cg_update alphas (ps : t array) (aps : t array) (xs : t array)
    (rs : t array) =
  let n, k = cg_update_checked "Multi_blas.cg_update" alphas ps aps xs rs in
  let ss =
    batch_fold (Field.implicit_pool n) None ~n ~k
      (cg_update_term alphas ps aps xs rs)
  in
  Array.iter (Field.Sanitize.check_vec "Multi_blas.cg_update") xs;
  finish "Multi_blas.cg_update" rs ss

let cg_update_with pool ?chunk alphas (ps : t array) (aps : t array)
    (xs : t array) (rs : t array) =
  let n, k = cg_update_checked "Multi_blas.cg_update" alphas ps aps xs rs in
  let ss =
    batch_fold (Some pool) chunk ~n ~k (cg_update_term alphas ps aps xs rs)
  in
  Array.iter (Field.Sanitize.check_vec "Multi_blas.cg_update") xs;
  finish "Multi_blas.cg_update" rs ss

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

let block_axpy_checked name (a : float array array) (xs : t array)
    (ys : t array) =
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
  n

let block_axpy (a : float array array) (xs : t array) (ys : t array) =
  let n = block_axpy_checked "Multi_blas.block_axpy" a xs ys in
  (match Field.implicit_pool n with
  | Some pool -> Util.Pool.parallel_for pool ~n (block_axpy_range a xs ys)
  | None -> block_axpy_range a xs ys 0 n);
  Array.iter (Field.Sanitize.check_vec "Multi_blas.block_axpy") ys

let block_axpy_with pool ?chunk (a : float array array) (xs : t array)
    (ys : t array) =
  let n = block_axpy_checked "Multi_blas.block_axpy" a xs ys in
  Util.Pool.parallel_for pool ?chunk ~n (block_axpy_range a xs ys);
  Array.iter (Field.Sanitize.check_vec "Multi_blas.block_axpy") ys

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
