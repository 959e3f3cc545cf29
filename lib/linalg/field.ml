(* Flat float64 Bigarray vectors: the storage for all fermion fields.
   The BLAS-1 level of the CG solver lives here. Reductions accumulate
   in double precision (they already are double — matching the paper's
   statement that all reductions are done in double even in the
   mixed-precision solver). Hot loops use unsafe accesses; lengths are
   validated once at entry.

   Multicore: every kernel has a pooled path over disjoint Bigarray
   slices (Util.Pool). Element-wise kernels are bit-identical to the
   serial loop for any pool geometry because each element's arithmetic
   is independent. Every reduction in the tree (norm2/dot_re/cdot
   here, the Fused and Multi_blas kernels, the stencil tails) sums
   through [fold_k]/[fold_partials]: canonical blocks of
   [reduce_block] floats whose partials are combined in block-index
   order on the calling domain — serial and pooled paths share that
   order, so the result is bit-identical across all pool geometries
   and bit-stable run to run (FP addition is not associative; fixing
   the association is what buys reproducibility). Each kernel takes
   [?pool ?chunk]; without a pool it runs where [launch_pool] says. *)

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
   than it hides — kernels without an explicit pool stay serial and
   Check.Plan_check PLAN008 warns about pooled launches under it. *)

let parallel_cutoff = 32_768

(* Canonical reduction block: reductions sum [reduce_block] floats
   serially per block and combine the block partials in index order,
   on every path — the association is fixed, so the result does not
   depend on the pool geometry. *)
let reduce_block = 2048

(* The one pool rule: the caller's pool, else the default pool when it
   has more than one lane and the launch's [n] floats reach
   [parallel_cutoff]; [None] runs serially. *)
let launch_pool pool n =
  match pool with
  | Some _ -> pool
  | None ->
    let p = Util.Pool.get_default () in
    if Util.Pool.size p > 1 && n >= parallel_cutoff then Some p else None

(* [range lo hi] over [0, n) on the pool [launch_pool] picks for a
   launch over [floats] floats. *)
let run pool chunk ~floats ~n range =
  match launch_pool pool floats with
  | Some p -> Util.Pool.parallel_for p ?chunk ~n range
  | None -> range 0 n

(* ---- element-wise kernels ---- *)

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

(* y <- y + alpha x *)
let axpy ?pool ?chunk alpha (x : t) (y : t) =
  check2 "Field.axpy" x y;
  let n = length x in
  run pool chunk ~floats:n ~n (axpy_range alpha x y);
  Sanitize.check_vec "Field.axpy" y

(* y <- x + alpha y *)
let xpay ?pool ?chunk (x : t) alpha (y : t) =
  check2 "Field.xpay" x y;
  let n = length x in
  run pool chunk ~floats:n ~n (xpay_range x alpha y);
  Sanitize.check_vec "Field.xpay" y

let scale ?pool ?chunk alpha (v : t) =
  let n = length v in
  run pool chunk ~floats:n ~n (scale_range alpha v);
  Sanitize.check_vec "Field.scale" v

(* z <- x - y *)
let sub ?pool ?chunk (x : t) (y : t) (z : t) =
  check2 "Field.sub" x y;
  check2 "Field.sub" x z;
  let n = length x in
  run pool chunk ~floats:n ~n (sub_range x y z);
  Sanitize.check_vec "Field.sub" z

(* y <- y + alpha x with complex alpha; vectors are interleaved re/im.
   A chunk given in floats is halved to pairs (and floored at one pair)
   so one tuned chunk axis serves both. *)
let caxpy ?pool ?chunk alpha (x : t) (y : t) =
  check2 "Field.caxpy" x y;
  let chunk = Option.map (fun c -> max 1 (c / 2)) chunk in
  run pool chunk ~floats:(length x) ~n:(length x / 2) (caxpy_range alpha x y);
  Sanitize.check_vec "Field.caxpy" y

(* ---- reductions: the one canonical blocked summation ----
   Floats [0, n) are cut into blocks of [reduce_block]; each block's
   partial is accumulated serially in index order by one lane, and the
   partials are summed from 0. in block order on the calling domain —
   a lone block's partial is returned as is (no [0. +.] normalisation
   of a -0. partial). The association is identical on every path, so
   serial and pooled results agree to the bit. *)

let n_blocks n = (n + reduce_block - 1) / reduce_block

let sum_partials (partials : float array) =
  if Array.length partials = 1 then partials.(0)
  else Array.fold_left ( +. ) 0. partials

(* k results at once, slot i summing [term i lo hi]; the block loop is
   outside the slot loop, so one pass over block b runs every slot
   while the block is hot. Block slots are disjoint, so pooled lanes
   fill them race-free; the chunk (in floats) is counted in blocks. *)
let fold_k ?pool ?chunk ~n ~k term =
  let nb = n_blocks n in
  let partials = Array.make_matrix k nb 0. in
  let fill blo bhi =
    for b = blo to bhi - 1 do
      let lo = b * reduce_block in
      let hi = min n (lo + reduce_block) in
      for i = 0 to k - 1 do
        partials.(i).(b) <- term i lo hi
      done
    done
  in
  (match launch_pool pool n with
  | Some p when nb > 1 ->
    let chunk = Option.map (fun c -> max 1 (c / reduce_block)) chunk in
    Util.Pool.parallel_for p ?chunk ~n:nb fill
  | _ -> fill 0 nb);
  Array.map sum_partials partials

let fold ?pool ?chunk ~n term = (fold_k ?pool ?chunk ~n ~k:1 (fun _ -> term)).(0)

(* For callers that launch their own passes (a stencil tiled at whole
   blocks): [run record] hands them [record term lo hi], which stores
   [term] of every block in floats [lo, hi) — [lo] block-aligned —
   into that block's slot; the slots are then summed as above. *)
let fold_partials ~n run =
  let partials = Array.make (n_blocks n) 0. in
  run (fun term lo hi ->
      for b = lo / reduce_block to n_blocks (min n hi) - 1 do
        let blo = b * reduce_block in
        partials.(b) <- term blo (min hi (blo + reduce_block))
      done);
  sum_partials partials

let norm2_term (v : t) lo hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    let x = Array1.unsafe_get v i in
    acc := !acc +. (x *. x)
  done;
  !acc

let norm2 ?pool ?chunk (v : t) =
  Sanitize.check_scalar "Field.norm2" (fold ?pool ?chunk ~n:(length v) (norm2_term v))

let norm v = sqrt (norm2 v)

let dot_re_term (x : t) (y : t) lo hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    acc := !acc +. (Array1.unsafe_get x i *. Array1.unsafe_get y i)
  done;
  !acc

(* Real part of <x|y> — for interleaved complex this equals the plain
   euclidean dot product. *)
let dot_re ?pool ?chunk (x : t) (y : t) =
  check2 "Field.dot_re" x y;
  Sanitize.check_scalar "Field.dot_re"
    (fold ?pool ?chunk ~n:(length x) (dot_re_term x y))

(* Two slots over the pairs of floats [lo, hi): 0 sums the real part
   of conj(x_k) y_k, 1 the imaginary part. *)
let cdot_term (x : t) (y : t) slot lo hi =
  let acc = ref 0. in
  for k = lo / 2 to (hi / 2) - 1 do
    let xr = Array1.unsafe_get x (2 * k) and xi = Array1.unsafe_get x ((2 * k) + 1) in
    let yr = Array1.unsafe_get y (2 * k) and yi = Array1.unsafe_get y ((2 * k) + 1) in
    acc :=
      !acc
      +. if slot = 0 then (xr *. yr) +. (xi *. yi) else (xr *. yi) -. (xi *. yr)
  done;
  !acc

(* Full complex <x|y> = sum conj(x_k) y_k over interleaved pairs; a
   dangling odd float is outside every pair. *)
let cdot ?pool ?chunk (x : t) (y : t) =
  check2 "Field.cdot" x y;
  let s = fold_k ?pool ?chunk ~n:(length x land lnot 1) ~k:2 (cdot_term x y) in
  Cplx.make
    (Sanitize.check_scalar "Field.cdot" s.(0))
    (Sanitize.check_scalar "Field.cdot" s.(1))

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
