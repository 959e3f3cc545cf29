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

   The fused contract is stricter than the unfused kernels about
   aliasing: an output buffer sharing data with a distinct-role input
   is rejected ([Invalid_argument]) — the guard probes the underlying
   storage, so distinct Bigarray handles over the same data are caught
   too. Element-local updates make most aliasings accidentally agree
   here, but the contract is what a vectorized or accelerator
   implementation needs, and it is what [Check.Plan_check] PLAN002
   verifies statically. *)

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

let check2 name a b =
  if Field.length a <> Field.length b then
    invalid_arg (name ^ ": length mismatch")

(* Aliasing probe: do two fields share their underlying data? Physical
   equality catches the direct misuse; for distinct Bigarray handles
   over the same storage (Array1.sub, a re-wrapped pointer) we write a
   bit-distinguishable marker through [a.{0}] and watch whether
   [b.{0}] observes it, restoring [a.{0}] afterwards. The marker
   differs from [b.{0}]'s current bits by construction (lowest
   mantissa bit flipped), so a non-aliasing pair can never test
   positive. Overlaps that do not cover both elements 0 (staggered
   sub-windows) still escape — PLAN002 models the full hazard
   statically. *)
let same_data (a : t) (b : t) =
  a == b
  || Field.length a > 0
     && Field.length b > 0
     &&
     let va = Array1.unsafe_get a 0 in
     let vb = Array1.unsafe_get b 0 in
     let marker =
       Int64.float_of_bits (Int64.logxor (Int64.bits_of_float vb) 1L)
     in
     Array1.unsafe_set a 0 marker;
     let aliased =
       Int64.bits_of_float (Array1.unsafe_get b 0) = Int64.bits_of_float marker
     in
     Array1.unsafe_set a 0 va;
     aliased

(* Aliasing guard: [outs] must not share data with any of [ins]. *)
let no_alias name outs ins =
  List.iter
    (fun (o : t) ->
      List.iter
        (fun (i : t) ->
          if same_data o i then
            invalid_arg (name ^ ": output aliases an input of a different role"))
        ins)
    outs

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

let finish kernel (v : t) s =
  Field.Sanitize.check_vec kernel v;
  Field.Sanitize.check_scalar kernel s

(* y <- y + alpha x; returns |y|^2 *)
let axpy_norm2 ?pool ?chunk alpha (x : t) (y : t) =
  check2 "Fused.axpy_norm2" x y;
  no_alias "Fused.axpy_norm2" [ y ] [ x ];
  let n = Field.length x in
  let g = Field.reduction ?pool ?chunk n in
  if !Util.Prof.on then
    Field.prof g "Fused.axpy_norm2" ~n Util.Prof.[ read x; update y; reduce ];
  finish "Fused.axpy_norm2" y (Field.fold g ~n (axpy_norm2_term alpha x y))

(* p <- x + beta p; returns p.q *)
let xpay_dot ?pool ?chunk (x : t) beta (p : t) (q : t) =
  check2 "Fused.xpay_dot" x p;
  check2 "Fused.xpay_dot" x q;
  no_alias "Fused.xpay_dot" [ p ] [ x ];
  let n = Field.length x in
  let g = Field.reduction ?pool ?chunk n in
  if !Util.Prof.on then
    Field.prof g "Fused.xpay_dot" ~n Util.Prof.[ read x; update p; read q; reduce ];
  finish "Fused.xpay_dot" p (Field.fold g ~n (xpay_dot_term x beta p q))

(* x <- x + alpha p; r <- r - alpha ap; returns |r|^2 *)
let cg_update ?pool ?chunk alpha (p : t) (ap : t) (x : t) (r : t) =
  check2 "Fused.cg_update" p ap;
  check2 "Fused.cg_update" p x;
  check2 "Fused.cg_update" p r;
  no_alias "Fused.cg_update" [ x; r ] [ p; ap ];
  if same_data x r then
    invalid_arg "Fused.cg_update: output aliases an input of a different role";
  let n = Field.length p in
  let g = Field.reduction ?pool ?chunk n in
  if !Util.Prof.on then
    Field.prof g "Fused.cg_update" ~n
      Util.Prof.[ read p; read ap; update x; update r; reduce ];
  let s = Field.fold g ~n (cg_update_term alpha p ap x r) in
  Field.Sanitize.check_vec "Fused.cg_update" x;
  finish "Fused.cg_update" r s

(* y <- y + alpha x (complex alpha, interleaved); returns |y|^2 *)
let caxpy_norm2 ?pool ?chunk alpha (x : t) (y : t) =
  check2 "Fused.caxpy_norm2" x y;
  no_alias "Fused.caxpy_norm2" [ y ] [ x ];
  let n = Field.length x in
  let g = Field.reduction ?pool ?chunk n in
  if !Util.Prof.on then
    Field.prof g "Fused.caxpy_norm2" ~n Util.Prof.[ read x; update y; reduce ];
  finish "Fused.caxpy_norm2" y (Field.fold g ~n (caxpy_norm2_term alpha x y))

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

(* The tail's operands as a stencil entry reports them to Util.Prof. *)
let tail_operands tl =
  (match tl.t_xpay with Some (out, _) -> [ Util.Prof.update out ] | None -> [])
  @ Util.Prof.[ read tl.t_dot; reduce ]

(* Guard + shape check, called by the stencil front-ends before the
   launch: every tail operand spans the stencil output, and the xpay
   output must not alias the stencil's dst — the fused pass reads dst
   as the xpay x-operand while writing out, the PLAN002 hazard the
   probing [same_data] rejects even across distinct handles. [q]
   aliasing dst or out is legal (read-only role — the monitor-dot
   idiom). *)
let tail_check name ~n ~(dst : t) tl =
  let len what (v : t) =
    if Field.length v <> n then
      invalid_arg (Printf.sprintf "%s: tail %s length mismatch" name what)
  in
  len "dot" tl.t_dot;
  match tl.t_xpay with
  | None -> ()
  | Some (out, _) ->
    len "xpay output" out;
    if same_data out dst then
      invalid_arg (name ^ ": tail output aliases the stencil dst")

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
