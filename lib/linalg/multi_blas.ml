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
     [Cg]'s one recurrence leans on for per-RHS trajectory identity.

   Each kernel is one [Field.launch] over the whole set, so PLAN002's
   aliasing rule holds across it: a vector written or updated in any
   slot appears in the launch once. *)

open Bigarray

type t = Field.t

let check_batch name (vs : t array) =
  if Array.length vs = 0 then invalid_arg (name ^ ": empty batch")

let check_width name k (vs : t array) =
  if Array.length vs <> k then invalid_arg (name ^ ": batch width mismatch")

let check_scalars name k (a : float array) =
  if Array.length a <> k then invalid_arg (name ^ ": coefficient count mismatch")

(* ---- batched axpy_norm2: ys.(i) <- ys.(i) + alphas.(i) xs.(i);
   returns per-RHS |y|^2 ---- *)

let axpy_norm2 ?pool ?chunk alphas (xs : t array) (ys : t array) =
  let name = "Multi_blas.axpy_norm2" in
  let k = Array.length ys in
  check_batch name ys;
  check_width name k xs;
  check_scalars name k alphas;
  let n = Field.length ys.(0) in
  let g = Field.reduction ?pool ?chunk n in
  Field.launch_fold name g ~n
    (Util.Prof.batch k (fun i -> Util.Prof.[ read xs.(i); update ys.(i); reduce ]))
    (fun () ->
      Field.fold_k g ~n ~k (fun i -> Fused.axpy_norm2_term alphas.(i) xs.(i) ys.(i)))

(* ---- batched xpay_dot: ps.(i) <- xs.(i) + betas.(i) ps.(i);
   returns per-RHS p.q ---- *)

let xpay_dot ?pool ?chunk (xs : t array) betas (ps : t array) (qs : t array) =
  let name = "Multi_blas.xpay_dot" in
  let k = Array.length ps in
  check_batch name ps;
  check_width name k xs;
  check_width name k qs;
  check_scalars name k betas;
  let n = Field.length ps.(0) in
  let g = Field.reduction ?pool ?chunk n in
  Field.launch_fold name g ~n
    (Util.Prof.batch k (fun i ->
         Util.Prof.[ read xs.(i); update ps.(i); read qs.(i); reduce ]))
    (fun () ->
      Field.fold_k g ~n ~k (fun i -> Fused.xpay_dot_term xs.(i) betas.(i) ps.(i) qs.(i)))

(* ---- batched cg_update: xs.(i) += alphas.(i) ps.(i);
   rs.(i) -= alphas.(i) aps.(i); returns per-RHS |r|^2 ---- *)

let cg_update ?pool ?chunk alphas (ps : t array) (aps : t array) (xs : t array)
    (rs : t array) =
  let name = "Multi_blas.cg_update" in
  let k = Array.length ps in
  check_batch name ps;
  List.iter (check_width name k) [ aps; xs; rs ];
  check_scalars name k alphas;
  let n = Field.length ps.(0) in
  let g = Field.reduction ?pool ?chunk n in
  Field.launch_fold name g ~n
    (Util.Prof.batch k (fun i ->
         Util.Prof.[ read ps.(i); read aps.(i); update xs.(i); update rs.(i); reduce ]))
    (fun () ->
      Field.fold_k g ~n ~k (fun i ->
          Fused.cg_update_term alphas.(i) ps.(i) aps.(i) xs.(i) rs.(i)))

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
  check_batch name ys;
  check_batch name xs;
  if Array.length a <> Array.length ys then
    invalid_arg (name ^ ": coefficient rows must match outputs");
  Array.iter
    (fun row ->
      if Array.length row <> Array.length xs then
        invalid_arg (name ^ ": coefficient columns must match inputs"))
    a;
  let n = Field.length ys.(0) in
  let g = Field.geometry ?pool ?chunk ~floats:n n in
  Field.launch name g ~n
    (List.map Util.Prof.read (Array.to_list xs)
    @ Util.Prof.batch (Array.length ys) (fun i -> [ Util.Prof.update ys.(i) ]))
    (fun () -> Field.run g ~n (block_axpy_range a xs ys))
