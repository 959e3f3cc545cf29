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
   [?pool ?chunk]; without a pool it runs where [launch_pool] says,
   at the [geometry] it also records. Every kernel and operator entry
   in the tree describes its launch once — name, operands with their
   roles, length, geometry — and runs it through [launch], which
   checks, records and sanitizes it. *)

open Bigarray

type t = (float, float64_elt, c_layout) Array1.t

let create n : t =
  let v = Array1.create float64 c_layout n in
  Array1.fill v 0.;
  v

let length (v : t) = Array1.dim v

let fill (v : t) x = Array1.fill v x

let of_array a : t =
  let v = Array1.create float64 c_layout (Array.length a) in
  Array.iteri (fun i x -> Array1.unsafe_set v i x) a;
  v

let to_array (v : t) = Array.init (length v) (Array1.unsafe_get v)

let check2 name a b =
  if length a <> length b then invalid_arg (name ^ ": length mismatch")

(* ---- opt-in numeric sanitizer ----
   When [enabled], every launch ([launch] below) scans the vectors it
   wrote and checks the results it reduced for NaN/Inf the moment they
   are produced, so the first kernel or operator entry that
   manufactures a non-finite value is named — instead of a NaN
   surfacing iterations later in a residual norm. Off by default: the
   only cost then is one ref read per launch. *)

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
    if !enabled && not (Float.is_finite x) then trap kernel (-1) x

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

(* One launch's geometry, decided once and read by both the recorder
   and [run], so a recording states the pool and chunk the kernel
   used: [chunk] items of [unit] floats per job on [pool]. *)
type geometry = { pool : Util.Pool.t; chunk : int; unit : int }

(* The pool [n] items over [floats] floats fork on: [launch_pool]'s
   pick when it has more than one lane and there is more than one
   item; otherwise the launch is serial. *)
let fork_pool pool ~floats n =
  match launch_pool pool floats with
  | Some p when Util.Pool.size p > 1 && n > 1 -> Some p
  | _ -> None

(* The one default-chunk rule of every launch: the pool's default on
   the launch's floats, counted in whole items of [unit] floats, at
   least one item. *)
let default_chunk p ~floats ~unit = max 1 (Util.Pool.default_chunk p floats / unit)

(* The kernels' rule: a caller's chunk is in floats, rounded down to
   whole items and floored at one; without one, [default_chunk]. A
   non-positive chunk is kept as given: the recorder sees it, then
   Util.Pool.parallel_for rejects it. *)
let geometry ?pool ?chunk ?(unit = 1) ~floats n =
  match fork_pool pool ~floats n with
  | None -> None
  | Some p ->
    let chunk =
      match chunk with
      | Some c when c > 0 -> max 1 (c / unit)
      | Some c -> c
      | None -> default_chunk p ~floats ~unit
    in
    Some { pool = p; chunk; unit }

(* [range lo hi] over the items [0, n) under [g]. *)
let run g ~n range =
  match g with
  | Some { pool; chunk; _ } -> Util.Pool.parallel_for pool ~chunk ~n range
  | None -> range 0 n

(* ---- the launch helper ---- *)

(* Do two fields share their data? Physical equality, else a marker
   (b.{0}'s bits with the lowest flipped, so no unaliased pair can
   match) written through a.{0} — [a] is always the launch's output —
   watched for at b.{0}, a.{0} restored. That catches a second handle
   over the same storage (Array1.sub, a re-wrapped pointer); staggered
   windows that do not share element 0 escape, and PLAN002 models the
   full hazard statically. *)
let same_data (a : t) (b : t) =
  a == b
  || length a > 0
     && length b > 0
     &&
     let va = Array1.unsafe_get a 0 in
     let vb = Array1.unsafe_get b 0 in
     let marker = Int64.float_of_bits (Int64.logxor (Int64.bits_of_float vb) 1L) in
     Array1.unsafe_set a 0 marker;
     let aliased = Int64.bits_of_float (Array1.unsafe_get b 0) = Int64.bits_of_float marker in
     Array1.unsafe_set a 0 va;
     aliased

let same_storage (o : Util.Prof.operand) (x : Util.Prof.operand) =
  match (o.vec, x.vec) with Some a, Some b -> same_data a b | _ -> false

let check_aliasing kernel operands =
  if Util.Prof.aliased (fun o -> o.Util.Prof.role) same_storage operands <> [] then
    invalid_arg (kernel ^ ": an output shares storage with another operand")

let rec check_lengths kernel ~n = function
  | [] -> ()
  | (o : Util.Prof.operand) :: rest ->
    (match o.vec with
    | Some v when length v <> n -> invalid_arg (kernel ^ ": length mismatch")
    | _ -> ());
    check_lengths kernel ~n rest

(* The launch as Util.Prof records it: geometry with its chunk in
   floats and, when an operand reduces, the canonical block. *)
let record ~sweeps g kernel ~n operands =
  let geometry = Option.map (fun g -> (Util.Pool.size g.pool, g.chunk * g.unit)) g in
  let block =
    if List.exists (fun o -> o.Util.Prof.role = Util.Prof.Reduce) operands then
      Some reduce_block
    else None
  in
  Util.Prof.launch ~kernel ~n ~geometry ~block ~sweeps operands

let sanitize kernel operands results =
  List.iter
    (fun (o : Util.Prof.operand) ->
      if Util.Prof.writes o.role then Option.iter (Sanitize.check_vec kernel) o.vec)
    operands;
  Array.iter (Sanitize.check_scalar kernel) results

(* A launch's checks and its recording; the body runs after. Without
   the sanitizer the body is a tail call, so the operand list is
   garbage while it runs and a collection inside it does not promote
   the list. *)
let admit ~sweeps kernel g ~n operands =
  if sweeps = 1 then check_lengths kernel ~n operands;
  check_aliasing kernel operands;
  if !Util.Prof.on then record ~sweeps g kernel ~n operands

let launch_fold ?(sweeps = 1) kernel g ~n operands body =
  admit ~sweeps kernel g ~n operands;
  if not !Sanitize.enabled then body ()
  else begin
    let results = body () in
    sanitize kernel operands results;
    results
  end

let launch ?(sweeps = 1) kernel g ~n operands body =
  admit ~sweeps kernel g ~n operands;
  if not !Sanitize.enabled then body ()
  else begin
    body ();
    sanitize kernel operands [||]
  end

let copy (v : t) : t =
  let w = Array1.create float64 c_layout (length v) in
  launch "Field.copy" None ~n:(length v) Util.Prof.[ read v; write w ] (fun () ->
      Array1.blit v w);
  w

let blit (src : t) (dst : t) =
  launch "Field.blit" None ~n:(length src) Util.Prof.[ read src; write dst ] (fun () ->
      Array1.blit src dst)

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
  let n = length x in
  let g = geometry ?pool ?chunk ~floats:n n in
  launch "Field.axpy" g ~n Util.Prof.[ read x; update y ] (fun () ->
      run g ~n (axpy_range alpha x y))

(* y <- x + alpha y *)
let xpay ?pool ?chunk (x : t) alpha (y : t) =
  let n = length x in
  let g = geometry ?pool ?chunk ~floats:n n in
  launch "Field.xpay" g ~n Util.Prof.[ read x; update y ] (fun () ->
      run g ~n (xpay_range x alpha y))

let scale ?pool ?chunk alpha (v : t) =
  let n = length v in
  let g = geometry ?pool ?chunk ~floats:n n in
  launch "Field.scale" g ~n Util.Prof.[ update v ] (fun () -> run g ~n (scale_range alpha v))

(* z <- x - y *)
let sub ?pool ?chunk (x : t) (y : t) (z : t) =
  let n = length x in
  let g = geometry ?pool ?chunk ~floats:n n in
  launch "Field.sub" g ~n Util.Prof.[ read x; read y; write z ] (fun () ->
      run g ~n (sub_range x y z))

(* y <- y + alpha x with complex alpha; vectors are interleaved re/im.
   The items are pairs: a chunk given in floats is halved (and floored
   at one pair) so one tuned chunk axis serves both. *)
let caxpy ?pool ?chunk alpha (x : t) (y : t) =
  let n = length x in
  let g = geometry ?pool ?chunk ~unit:2 ~floats:n (n / 2) in
  launch "Field.caxpy" g ~n Util.Prof.[ read x; update y ] (fun () ->
      run g ~n:(n / 2) (caxpy_range alpha x y))

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

(* The geometry of a fold over [n] floats: its items are blocks, so a
   chunk (in floats), or the default one, is counted in whole blocks. *)
let reduction ?pool ?chunk n =
  geometry ?pool ?chunk ~unit:reduce_block ~floats:n (n_blocks n)

(* k results at once, slot i summing [term i lo hi]; the block loop is
   outside the slot loop, so one pass over block b runs every slot
   while the block is hot. Block slots are disjoint, so pooled lanes
   fill them race-free. *)
let fold_k g ~n ~k term =
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
  run g ~n:nb fill;
  Array.map sum_partials partials

let fold g ~n term = (fold_k g ~n ~k:1 (fun _ -> term)).(0)

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
  let n = length v in
  let g = reduction ?pool ?chunk n in
  (launch_fold "Field.norm2" g ~n Util.Prof.[ read v; reduce ] (fun () ->
       fold_k g ~n ~k:1 (fun _ -> norm2_term v))).(0)

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
  let n = length x in
  let g = reduction ?pool ?chunk n in
  (launch_fold "Field.dot_re" g ~n Util.Prof.[ read x; read y; reduce ] (fun () ->
       fold_k g ~n ~k:1 (fun _ -> dot_re_term x y))).(0)

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
  let n = length x land lnot 1 in
  let g = reduction ?pool ?chunk n in
  let s =
    launch_fold "Field.cdot" g ~n:(length x) Util.Prof.[ read x; read y; reduce ] (fun () ->
        fold_k g ~n ~k:2 (cdot_term x y))
  in
  Cplx.make s.(0) s.(1)

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
    if block < 1 || n mod block <> 0 then
      invalid_arg "Field.Half.create: block must be positive and divide n";
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
