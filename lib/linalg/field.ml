(* Flat float64 Bigarray vectors: the storage for all fermion fields.
   The BLAS-1 level of the CG solver lives here. Reductions accumulate
   in double precision (they already are double — matching the paper's
   statement that all reductions are done in double even in the
   mixed-precision solver). Hot loops use unsafe accesses; lengths are
   validated once at entry.

   Multicore: every kernel has a pooled path over disjoint Bigarray
   slices (Util.Pool). Element-wise kernels are bit-identical to the
   serial loop for any pool geometry because each element's arithmetic
   is independent. Reductions (norm2/dot_re/cdot) always sum in
   canonical blocks of [reduce_block] floats whose partials are
   combined in block-index order on the calling domain — serial and
   pooled paths share that order, so the result is bit-identical
   across all pool geometries and bit-stable run to run (FP addition
   is not associative; fixing the association is what buys
   reproducibility). The implicit paths dispatch on
   [Util.Pool.get_default] above [parallel_cutoff]; the [_with]
   variants take an explicit pool + chunk for the autotuner. *)

open Bigarray

type t = (float, float64_elt, c_layout) Array1.t

let create n : t =
  let v = Array1.create float64 c_layout n in
  Array1.fill v 0.;
  v

let length (v : t) = Array1.dim v

let copy (v : t) : t =
  let w = Array1.create float64 c_layout (length v) in
  Array1.blit v w;
  w

let blit (src : t) (dst : t) = Array1.blit src dst
let fill (v : t) x = Array1.fill v x

let of_array a : t =
  let v = Array1.create float64 c_layout (Array.length a) in
  Array.iteri (fun i x -> Array1.unsafe_set v i x) a;
  v

let to_array (v : t) = Array.init (length v) (Array1.unsafe_get v)

let check2 name a b =
  if length a <> length b then invalid_arg (name ^ ": length mismatch")

(* ---- opt-in numeric sanitizer ----
   When [enabled], every BLAS-1 kernel scans its output (vectors) or
   checks its result (reductions) for NaN/Inf the moment it is
   produced, so the first kernel that manufactures a non-finite value
   is named — instead of a NaN surfacing iterations later in a
   residual norm. Off by default: the only cost then is one ref read
   per kernel call. *)

module Sanitize = struct
  exception Non_finite of string * int * float

  let enabled = ref false
  let raising = ref true
  let trap_count = ref 0
  let max_recorded = 64
  let recorded : (string * int * float) list ref = ref []

  let reset () =
    trap_count := 0;
    recorded := []

  let trap kernel index value =
    incr trap_count;
    if List.length !recorded < max_recorded then
      recorded := (kernel, index, value) :: !recorded;
    if !raising then raise (Non_finite (kernel, index, value))

  let check_scalar kernel x =
    if !enabled && not (Float.is_finite x) then trap kernel (-1) x;
    x

  let check_vec kernel (v : t) =
    if !enabled then
      for i = 0 to length v - 1 do
        let x = Array1.unsafe_get v i in
        if not (Float.is_finite x) then trap kernel i x
      done

  (* Run [f] with the sanitizer on (trap log cleared first), restoring
     the previous sanitizer state afterwards. *)
  let scoped ?(raise_on_trap = true) f =
    let e = !enabled and r = !raising in
    enabled := true;
    raising := raise_on_trap;
    reset ();
    Fun.protect
      ~finally:(fun () ->
        enabled := e;
        raising := r)
      f
end

(* ---- pooled execution ----
   [parallel_cutoff]: below this many floats a fork/join costs more
   than it hides — the implicit kernels stay serial and
   Check.Plan_check PLAN008 warns about pooled launches under it. *)

let parallel_cutoff = 32_768

(* Canonical reduction block: reductions sum [reduce_block] floats
   serially per block and combine the block partials in index order,
   on every path — the association is fixed, so the result does not
   depend on the pool geometry. *)
let reduce_block = 2048

let implicit_pool n =
  let pool = Util.Pool.get_default () in
  if Util.Pool.size pool > 1 && n >= parallel_cutoff then Some pool else None

(* ---- element-wise kernels: range bodies + dispatch ---- *)

let axpy_range alpha (x : t) (y : t) lo hi =
  for i = lo to hi - 1 do
    Array1.unsafe_set y i
      (Array1.unsafe_get y i +. (alpha *. Array1.unsafe_get x i))
  done

let xpay_range (x : t) alpha (y : t) lo hi =
  for i = lo to hi - 1 do
    Array1.unsafe_set y i
      (Array1.unsafe_get x i +. (alpha *. Array1.unsafe_get y i))
  done

let scale_range alpha (v : t) lo hi =
  for i = lo to hi - 1 do
    Array1.unsafe_set v i (alpha *. Array1.unsafe_get v i)
  done

let sub_range (x : t) (y : t) (z : t) lo hi =
  for i = lo to hi - 1 do
    Array1.unsafe_set z i (Array1.unsafe_get x i -. Array1.unsafe_get y i)
  done

(* [lo, hi) in complex pairs: chunks never split a re/im pair. *)
let caxpy_range (ar, ai) (x : t) (y : t) lo hi =
  for k = lo to hi - 1 do
    let xr = Array1.unsafe_get x (2 * k) and xi = Array1.unsafe_get x ((2 * k) + 1) in
    Array1.unsafe_set y (2 * k)
      (Array1.unsafe_get y (2 * k) +. ((ar *. xr) -. (ai *. xi)));
    Array1.unsafe_set y ((2 * k) + 1)
      (Array1.unsafe_get y ((2 * k) + 1) +. ((ar *. xi) +. (ai *. xr)))
  done

let run_pooled pool chunk ~n f =
  match pool with
  | Some p -> Util.Pool.parallel_for p ?chunk ~n f
  | None -> f 0 n

(* y <- y + alpha x *)
let axpy alpha (x : t) (y : t) =
  check2 "Field.axpy" x y;
  let n = length x in
  run_pooled (implicit_pool n) None ~n (axpy_range alpha x y);
  Sanitize.check_vec "Field.axpy" y

let axpy_with pool ?chunk alpha (x : t) (y : t) =
  check2 "Field.axpy" x y;
  Util.Pool.parallel_for pool ?chunk ~n:(length x) (axpy_range alpha x y);
  Sanitize.check_vec "Field.axpy" y

(* y <- x + alpha y *)
let xpay (x : t) alpha (y : t) =
  check2 "Field.xpay" x y;
  let n = length x in
  run_pooled (implicit_pool n) None ~n (xpay_range x alpha y);
  Sanitize.check_vec "Field.xpay" y

let xpay_with pool ?chunk (x : t) alpha (y : t) =
  check2 "Field.xpay" x y;
  Util.Pool.parallel_for pool ?chunk ~n:(length x) (xpay_range x alpha y);
  Sanitize.check_vec "Field.xpay" y

let scale alpha (v : t) =
  let n = length v in
  run_pooled (implicit_pool n) None ~n (scale_range alpha v);
  Sanitize.check_vec "Field.scale" v

let scale_with pool ?chunk alpha (v : t) =
  Util.Pool.parallel_for pool ?chunk ~n:(length v) (scale_range alpha v);
  Sanitize.check_vec "Field.scale" v

(* z <- x - y *)
let sub (x : t) (y : t) (z : t) =
  check2 "Field.sub" x y;
  check2 "Field.sub" x z;
  let n = length x in
  run_pooled (implicit_pool n) None ~n (sub_range x y z);
  Sanitize.check_vec "Field.sub" z

let sub_with pool ?chunk (x : t) (y : t) (z : t) =
  check2 "Field.sub" x y;
  check2 "Field.sub" x z;
  Util.Pool.parallel_for pool ?chunk ~n:(length x) (sub_range x y z);
  Sanitize.check_vec "Field.sub" z

(* A chunk given in floats is halved to pairs for the complex kernels
   (and floored at one pair) so one tuned chunk axis serves both. *)
let pair_chunk = Option.map (fun c -> max 1 (c / 2))

(* y <- y + alpha x with complex alpha; vectors are interleaved re/im. *)
let caxpy alpha (x : t) (y : t) =
  check2 "Field.caxpy" x y;
  let n = length x / 2 in
  run_pooled (implicit_pool (length x)) None ~n (caxpy_range alpha x y);
  Sanitize.check_vec "Field.caxpy" y

let caxpy_with pool ?chunk alpha (x : t) (y : t) =
  check2 "Field.caxpy" x y;
  Util.Pool.parallel_for pool ?chunk:(pair_chunk chunk) ~n:(length x / 2)
    (caxpy_range alpha x y);
  Sanitize.check_vec "Field.caxpy" y

(* ---- reductions: canonical blocked summation ----
   [term lo hi] is the serial partial over elements [lo, hi);
   [block_fold] cuts [0, n) into [reduce_block]-sized blocks, computes
   each block's partial (possibly in parallel — slots are disjoint)
   and folds the partials in block-index order on the calling domain.
   The association is identical on every path, so serial and pooled
   results agree to the bit. *)

let block_fold pool chunk ~n ~block term =
  let n_blocks = (n + block - 1) / block in
  if n_blocks <= 1 then (if n <= 0 then 0. else term 0 n)
  else begin
    let partials = Array.make n_blocks 0. in
    let fill blo bhi =
      for b = blo to bhi - 1 do
        partials.(b) <- term (b * block) (min n ((b + 1) * block))
      done
    in
    (match pool with
    | Some p ->
      let chunk_blocks = Option.map (fun c -> max 1 (c / block)) chunk in
      Util.Pool.parallel_for p ?chunk:chunk_blocks ~n:n_blocks fill
    | None -> fill 0 n_blocks);
    let acc = ref 0. in
    for b = 0 to n_blocks - 1 do
      acc := !acc +. partials.(b)
    done;
    !acc
  end

let norm2_term (v : t) lo hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    let x = Array1.unsafe_get v i in
    acc := !acc +. (x *. x)
  done;
  !acc

let norm2 (v : t) =
  let n = length v in
  Sanitize.check_scalar "Field.norm2"
    (block_fold (implicit_pool n) None ~n ~block:reduce_block (norm2_term v))

let norm2_with pool ?chunk (v : t) =
  Sanitize.check_scalar "Field.norm2"
    (block_fold (Some pool) chunk ~n:(length v) ~block:reduce_block (norm2_term v))

let norm v = sqrt (norm2 v)

let dot_re_term (x : t) (y : t) lo hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    acc := !acc +. (Array1.unsafe_get x i *. Array1.unsafe_get y i)
  done;
  !acc

(* Real part of <x|y> — for interleaved complex this equals the plain
   euclidean dot product. *)
let dot_re (x : t) (y : t) =
  check2 "Field.dot_re" x y;
  let n = length x in
  Sanitize.check_scalar "Field.dot_re"
    (block_fold (implicit_pool n) None ~n ~block:reduce_block (dot_re_term x y))

let dot_re_with pool ?chunk (x : t) (y : t) =
  check2 "Field.dot_re" x y;
  Sanitize.check_scalar "Field.dot_re"
    (block_fold (Some pool) chunk ~n:(length x) ~block:reduce_block
       (dot_re_term x y))

(* cdot needs two accumulators per block; blocks are counted in pairs
   ([reduce_block / 2] pairs = [reduce_block] floats, same canonical
   boundaries as the real reductions). *)
let cdot_blocked pool chunk (x : t) (y : t) =
  let np = length x / 2 in
  let block = reduce_block / 2 in
  let term lo hi =
    let re = ref 0. and im = ref 0. in
    for k = lo to hi - 1 do
      let xr = Array1.unsafe_get x (2 * k) and xi = Array1.unsafe_get x ((2 * k) + 1) in
      let yr = Array1.unsafe_get y (2 * k) and yi = Array1.unsafe_get y ((2 * k) + 1) in
      re := !re +. ((xr *. yr) +. (xi *. yi));
      im := !im +. ((xr *. yi) -. (xi *. yr))
    done;
    (!re, !im)
  in
  let n_blocks = if np = 0 then 0 else (np + block - 1) / block in
  if n_blocks <= 1 then (if np = 0 then (0., 0.) else term 0 np)
  else begin
    let pre = Array.make n_blocks 0. and pim = Array.make n_blocks 0. in
    let fill blo bhi =
      for b = blo to bhi - 1 do
        let re, im = term (b * block) (min np ((b + 1) * block)) in
        pre.(b) <- re;
        pim.(b) <- im
      done
    in
    (match pool with
    | Some p ->
      let chunk_blocks = Option.map (fun c -> max 1 (c / reduce_block)) chunk in
      Util.Pool.parallel_for p ?chunk:chunk_blocks ~n:n_blocks fill
    | None -> fill 0 n_blocks);
    let re = ref 0. and im = ref 0. in
    for b = 0 to n_blocks - 1 do
      re := !re +. pre.(b);
      im := !im +. pim.(b)
    done;
    (!re, !im)
  end

(* Full complex <x|y> = sum conj(x_k) y_k over interleaved pairs. *)
let cdot (x : t) (y : t) =
  check2 "Field.cdot" x y;
  let re, im = cdot_blocked (implicit_pool (length x)) None x y in
  Cplx.make (Sanitize.check_scalar "Field.cdot" re) (Sanitize.check_scalar "Field.cdot" im)

let cdot_with pool ?chunk (x : t) (y : t) =
  check2 "Field.cdot" x y;
  let re, im = cdot_blocked (Some pool) chunk x y in
  Cplx.make (Sanitize.check_scalar "Field.cdot" re) (Sanitize.check_scalar "Field.cdot" im)

let gaussian rng (v : t) =
  for i = 0 to length v - 1 do
    Array1.unsafe_set v i (Util.Rng.gaussian rng)
  done

let map2 f (x : t) (y : t) (z : t) =
  check2 "Field.map2" x y;
  check2 "Field.map2" x z;
  for i = 0 to length x - 1 do
    Array1.unsafe_set z i (f (Array1.unsafe_get x i) (Array1.unsafe_get y i))
  done

let max_abs_diff (x : t) (y : t) =
  check2 "Field.max_abs_diff" x y;
  let acc = ref 0. in
  for i = 0 to length x - 1 do
    let d = abs_float (Array1.unsafe_get x i -. Array1.unsafe_get y i) in
    if d > !acc then acc := d
  done;
  !acc

(* ---- Half precision: 16-bit fixed point with per-block norms ----
   This is QUDA's storage scheme for the inner solver of the
   double-half CG: each block (one lattice site's 24 reals, say) stores
   a single float32 max-norm and int16 mantissas v/norm * 32767. *)

module Half = struct
  type h = {
    data : (int, int16_signed_elt, c_layout) Array1.t;
    norms : (float, float32_elt, c_layout) Array1.t;
    block : int;
  }

  let max_q = Quantize.max_q

  let create ~block n =
    if n mod block <> 0 then invalid_arg "Field.Half.create: block must divide n";
    let data = Array1.create int16_signed c_layout n in
    Array1.fill data 0;
    let norms = Array1.create float32 c_layout (n / block) in
    Array1.fill norms 0.;
    { data; norms; block }

  let length h = Array1.dim h.data

  (* The scaling math lives in Quantize (shared with the gauge codec
     and the compressed halo payloads); encode/decode here only add
     the length checks and the boundary sanitize. Bit-identical to the
     historical inline loops: Quantize runs the same store-the-norm /
     re-read-it / quantize-against-the-stored-value sequence. *)
  let encode (v : t) (h : h) =
    if length h <> Array1.dim v then invalid_arg "Field.Half.encode: length";
    (* the codec silently launders NaN/Inf into 0 (comparisons against
       a NaN norm are all false) — trap at the boundary instead *)
    Sanitize.check_vec "Field.Half.encode" v;
    Quantize.encode_blocks v h.data h.norms ~block:h.block

  let decode (h : h) (v : t) =
    if length h <> Array1.dim v then invalid_arg "Field.Half.decode: length";
    Quantize.decode_blocks h.data h.norms v ~block:h.block

  let round_trip (v : t) ~block =
    let h = create ~block (Array1.dim v) in
    encode v h;
    let w = Array1.create float64 c_layout (Array1.dim v) in
    decode h w;
    w
end
