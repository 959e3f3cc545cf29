(* Fused BLAS-1 solver kernels — the QUDA move for a memory-bound CG
   tail: fold the reduction into the update so each iteration streams
   the vectors once instead of once per kernel. Every kernel here is
   defined by an unfused sequence it must match bit-for-bit:

     axpy_norm2  a x y   ==  Field.axpy a x y;  Field.norm2 y
     xpay_dot    x b p q ==  Field.xpay x b p;  Field.dot_re p q
     cg_update a p ap x r == Field.axpy a p x; Field.axpy (-a) ap r;
                             Field.norm2 r     (QUDA tripleCGUpdate)
     caxpy_norm2 a x y   ==  Field.caxpy a x y; Field.norm2 y

   The identity holds to the bit for any pool geometry because each
   kernel runs through [Field.fold]: the update is element-wise
   (independent per element, so interleaving it with the reduction
   changes nothing) and the reduction accumulates each canonical
   [Field.reduce_block]-float block in index order, with the block
   partials folded in block-index order on the calling domain — the
   exact association of the standalone [Field.norm2]/[dot_re].

   Each kernel runs through [Field.launch_fold], so it keeps PLAN002's
   aliasing rule at runtime: a vector it writes or updates appears in
   the launch once ([Invalid_argument] otherwise, probed through the
   storage). Element-local updates make most aliasings accidentally
   agree here, but the contract is what a vectorized or accelerator
   implementation needs. *)

open Bigarray

type t = Field.t

(* How a solver's BLAS-1 tail is fused per iteration — the launch axis
   Autotune.Variants tunes and Check.Plan_check lints. [Fused] keeps
   the p·Ap reduction a separate host kernel (the fallback when the
   operator cannot carry a tail); [Tail_fused] rides it on the stencil
   through the [tail] closure below, the 2-sweep plan the performance
   model prices. *)
type mode = Unfused | Fused | Tail_fused

let mode_name = function
  | Unfused -> "unfused"
  | Fused -> "fused"
  | Tail_fused -> "tailfused"

(* ---- fused range terms: update the block, reduce it, in one pass.
   Accumulation visits elements in index order, one float at a time —
   the same association as Field.norm2/dot_re. Multi_blas runs these
   same loops per batch slot. ---- *)

let axpy_norm2_term alpha (x : t) (y : t) lo hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    let yi = Array1.unsafe_get y i +. (alpha *. Array1.unsafe_get x i) in
    Array1.unsafe_set y i yi;
    acc := !acc +. (yi *. yi)
  done;
  !acc

let xpay_dot_term (x : t) beta (p : t) (q : t) lo hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    let pi = Array1.unsafe_get x i +. (beta *. Array1.unsafe_get p i) in
    Array1.unsafe_set p i pi;
    acc := !acc +. (pi *. Array1.unsafe_get q i)
  done;
  !acc

let cg_update_term alpha (p : t) (ap : t) (x : t) (r : t) lo hi =
  let nalpha = -.alpha in
  let acc = ref 0. in
  for i = lo to hi - 1 do
    Array1.unsafe_set x i
      (Array1.unsafe_get x i +. (alpha *. Array1.unsafe_get p i));
    let ri = Array1.unsafe_get r i +. (nalpha *. Array1.unsafe_get ap i) in
    Array1.unsafe_set r i ri;
    acc := !acc +. (ri *. ri)
  done;
  !acc

(* Complex pairs inside [lo, hi) of floats. Block bounds from
   Field.fold are even (reduce_block is), except a final odd [hi] on
   an odd-length vector: that dangling float is exactly the one
   Field.caxpy never updates, so it enters the norm read-only. The
   norm accumulates re then im separately to keep Field.norm2's
   one-float-at-a-time association. *)
let caxpy_norm2_term (ar, ai) (x : t) (y : t) lo hi =
  let acc = ref 0. in
  for k = lo / 2 to (hi / 2) - 1 do
    let xr = Array1.unsafe_get x (2 * k)
    and xi = Array1.unsafe_get x ((2 * k) + 1) in
    let yr = Array1.unsafe_get y (2 * k) +. ((ar *. xr) -. (ai *. xi)) in
    let yi = Array1.unsafe_get y ((2 * k) + 1) +. ((ar *. xi) +. (ai *. xr)) in
    Array1.unsafe_set y (2 * k) yr;
    Array1.unsafe_set y ((2 * k) + 1) yi;
    acc := !acc +. (yr *. yr);
    acc := !acc +. (yi *. yi)
  done;
  if hi land 1 = 1 then begin
    let v = Array1.unsafe_get y (hi - 1) in
    acc := !acc +. (v *. v)
  end;
  !acc

(* y <- y + alpha x; returns |y|^2 *)
let axpy_norm2 ?pool ?chunk alpha (x : t) (y : t) =
  let n = Field.length x in
  let g = Field.reduction ?pool ?chunk n in
  (Field.launch_fold "Fused.axpy_norm2" g ~n Util.Prof.[ read x; update y; reduce ]
     (fun () -> [| Field.fold g ~n (axpy_norm2_term alpha x y) |])).(0)

(* p <- x + beta p; returns p.q *)
let xpay_dot ?pool ?chunk (x : t) beta (p : t) (q : t) =
  let n = Field.length x in
  let g = Field.reduction ?pool ?chunk n in
  (Field.launch_fold "Fused.xpay_dot" g ~n Util.Prof.[ read x; update p; read q; reduce ]
     (fun () -> [| Field.fold g ~n (xpay_dot_term x beta p q) |])).(0)

(* x <- x + alpha p; r <- r - alpha ap; returns |r|^2 *)
let cg_update ?pool ?chunk alpha (p : t) (ap : t) (x : t) (r : t) =
  let n = Field.length p in
  let g = Field.reduction ?pool ?chunk n in
  (Field.launch_fold "Fused.cg_update" g ~n
     Util.Prof.[ read p; read ap; update x; update r; reduce ]
     (fun () -> [| Field.fold g ~n (cg_update_term alpha p ap x r) |])).(0)

(* y <- y + alpha x (complex alpha, interleaved); returns |y|^2 *)
let caxpy_norm2 ?pool ?chunk alpha (x : t) (y : t) =
  let n = Field.length x in
  let g = Field.reduction ?pool ?chunk n in
  (Field.launch_fold "Fused.caxpy_norm2" g ~n Util.Prof.[ read x; update y; reduce ]
     (fun () -> [| Field.fold g ~n (caxpy_norm2_term alpha x y) |])).(0)

(* ---- stencil output tail ----
   The closure a hop kernel applies per site-block right after the
   stencil result lands, while the block is still hot: an optional
   xpay into a separate output ([out <- dst + beta*out]) followed by a
   dot accumulation against [q]. Defined, like every kernel here, by
   the unfused sequence it must match bit-for-bit:

     hop ~tail:{xpay = Some (out, beta); dot = q}
       ==  hop; xpay_dot dst beta out q
     hop ~tail:{xpay = None; dot = q}
       ==  hop; Field.dot_re q dst

   The dot pairs [q] with the tail result (out when the xpay runs, the
   raw stencil output otherwise). Bit-identity holds for any pool
   geometry because the stencil callers tile the tail at whole
   [Field.reduce_block]s and sum the block partials through
   [Field.fold_partials] — the canonical association. *)
type tail = {
  t_xpay : (t * float) option;  (* (out, beta): out <- dst + beta*out *)
  t_dot : t;  (* q: the reduction operand *)
}

let tail ?xpay ~dot () = { t_xpay = xpay; t_dot = dot }

(* The tail's operands as a stencil entry lists them in its launch. *)
let tail_operands tl =
  (match tl.t_xpay with Some (out, _) -> [ Util.Prof.update out ] | None -> [])
  @ Util.Prof.[ read tl.t_dot; reduce ]

(* Shape check, called by the stencil front-ends before the launch:
   every tail operand spans the stencil output. Aliasing is the
   launch's: [Field.launch_fold] sees the tail's operands. *)
let tail_check name ~n tl =
  let len what (v : t) =
    if Field.length v <> n then
      invalid_arg (Printf.sprintf "%s: tail %s length mismatch" name what)
  in
  len "dot" tl.t_dot;
  Option.iter (fun (out, _) -> len "xpay output" out) tl.t_xpay

(* The serial per-block term: callers hand it canonical-block [lo, hi)
   float ranges of dst through Field.fold_partials. Accumulation is one
   float at a time — Field.dot_re's association; the xpay matches
   xpay_dot_term element-wise. *)
let tail_term tl ~(dst : t) lo hi =
  let q = tl.t_dot in
  let acc = ref 0. in
  (match tl.t_xpay with
  | Some (out, beta) ->
    for i = lo to hi - 1 do
      let oi = Array1.unsafe_get dst i +. (beta *. Array1.unsafe_get out i) in
      Array1.unsafe_set out i oi;
      acc := !acc +. (oi *. Array1.unsafe_get q i)
    done
  | None ->
    for i = lo to hi - 1 do
      acc := !acc +. (Array1.unsafe_get q i *. Array1.unsafe_get dst i)
    done);
  !acc
