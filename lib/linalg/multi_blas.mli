(** Multi-vector fused BLAS-1 over vector *sets* — QUDA's multi-blas
    idiom on the host. One launch streams a batch of k vectors,
    interleaving the per-vector block passes so the working set stays
    hot, while each RHS runs its single-vector [Linalg.Fused] kernel's
    range loop through the canonical [Field.reduce_block]-blocked,
    index-ordered reduction ([Field.fold_k]). Consequence (the
    invariant the batched solver leans on): result [i] of every kernel
    here is bit-identical to the independent fused call on vector [i],
    serial or pooled, for any pool geometry. Every kernel takes
    [?pool ?chunk] ([chunk] in floats, applied to each RHS's block
    space) like [Field]'s, and runs as one [Field.launch] whose
    operands carry their batch slot.

    Aliasing contract, PLAN002's, set-wide: a vector written or updated
    in any slot appears in the call exactly once, else
    [Invalid_argument] (probed through the storage). A vector read
    twice is legal. All vectors in a call must have one common length;
    batches must be non-empty. *)

type t = Field.t

val block_axpy :
  ?pool:Util.Pool.t -> ?chunk:int -> float array array -> t array -> t array -> unit
(** [block_axpy a xs ys]: the multi-blas tile
    [ys.(i) <- ys.(i) + sum_j a.(i).(j)·xs.(j)], with [a] an
    [Array.length ys × Array.length xs] coefficient matrix. Per output
    element the j-accumulation runs in index order, so output [i]
    matches the sequential [Field.axpy a.(i).(j) xs.(j) ys.(i)] sweeps
    (j ascending) bit-for-bit — with one pass over memory instead of
    [Array.length xs]. *)

val axpy_norm2 :
  ?pool:Util.Pool.t -> ?chunk:int -> float array -> t array -> t array -> float array
(** [axpy_norm2 alphas xs ys]: per RHS,
    [ys.(i) <- ys.(i) + alphas.(i)·xs.(i)]; returns the per-RHS |y|².
    Slot [i] ≡ [Fused.axpy_norm2 alphas.(i) xs.(i) ys.(i)] to the
    bit. *)

val xpay_dot :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  t array ->
  float array ->
  t array ->
  t array ->
  float array
(** [xpay_dot xs betas ps qs]: per RHS,
    [ps.(i) <- xs.(i) + betas.(i)·ps.(i)]; returns the per-RHS p·q.
    Slot [i] ≡ [Fused.xpay_dot xs.(i) betas.(i) ps.(i) qs.(i)]. *)

val cg_update :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  float array ->
  t array ->
  t array ->
  t array ->
  t array ->
  float array
(** [cg_update alphas ps aps xs rs]: per RHS, the whole CG vector tail
    [xs.(i) += alphas.(i)·ps.(i); rs.(i) -= alphas.(i)·aps.(i)];
    returns the per-RHS |r|². Slot [i] ≡
    [Fused.cg_update alphas.(i) ps.(i) aps.(i) xs.(i) rs.(i)]. *)
