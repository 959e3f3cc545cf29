(** Fused BLAS-1 solver kernels: the update and its reduction in one
    memory sweep (QUDA-style). Each kernel is bit-identical — for any
    pool geometry, serial or pooled — to the unfused sequence it
    replaces, because all of them run the canonical
    [Field.reduce_block]-float blocked, index-ordered reduction
    ([Field.fold]) with the element-wise update folded into the
    block pass. Each kernel takes [?pool ?chunk] like [Field]'s and
    runs through [Field.launch_fold].

    Aliasing contract, PLAN002's: a vector a kernel writes or updates
    appears in the call exactly once, else [Invalid_argument] — probed
    through the storage, so a second Bigarray handle over the same
    data is rejected too. A vector read twice is legal: [xpay_dot r
    beta p r], the CG orthogonality monitor, reads [r] as [x] and
    [q]. *)

type t = Field.t

type mode = Unfused | Fused | Tail_fused
(** How a solver's BLAS-1 tail runs per iteration — the launch axis
    [Autotune.Variants] tunes and [Check.Plan_check] lints. [Fused]
    keeps the p·Ap reduction a separate host kernel (3 sweeps, the
    fallback when the operator cannot carry a tail); [Tail_fused]
    rides it on the stencil through {!tail} — the 2-sweep plan
    [Machine.Perf_model.blas1_sweeps] prices. *)

val mode_name : mode -> string
(** ["unfused"] / ["fused"] / ["tailfused"] — the label prefixes the
    autotuner caches winners under. *)

(** {2 Stencil output tail}

    The closure a hop kernel applies per site-block right after the
    stencil result lands: an optional xpay into a separate output
    ([out <- dst + beta·out]) followed by a dot accumulation against a
    read-only [q] — [Wilson.hop_tail] and the Möbius Schur chain
    execute it through the canonical blocked reduction, so
    [hop_tail ~tail:(tail ~xpay:(out, beta) ~dot:q ())] is
    bit-identical to [hop; xpay_dot dst beta out q] and the dot-only
    form to [hop; Field.dot_re q dst], for any pool geometry. *)

type tail = {
  t_xpay : (t * float) option;  (** (out, beta): out <- dst + beta·out *)
  t_dot : t;  (** q: the reduction operand *)
}

val tail : ?xpay:t * float -> dot:t -> unit -> tail

val tail_operands : tail -> Util.Prof.operand list
(** The xpay output (updated), [q] (read) and the reduction, as the
    tail-carrying stencil entries list them in their launch. *)

val tail_check : string -> n:int -> tail -> unit
(** Shape guard, run by the stencil front-ends before the launch: every
    tail operand must span the [n]-float stencil output
    ([Invalid_argument]). The launch checks aliasing: with
    {!tail_operands} among its operands, an xpay output or a [q] that
    shares storage with the stencil [dst] is rejected. *)

val tail_term : tail -> dst:t -> int -> int -> float
(** [tail_term tl ~dst lo hi]: the serial per-block pass over floats
    [lo, hi) of the written stencil output — xpay (if any) then the
    dot partial, one element at a time in index order. Callers hand it
    canonical [Field.reduce_block] ranges through
    [Field.fold_partials]. *)

val axpy_norm2 : ?pool:Util.Pool.t -> ?chunk:int -> float -> t -> t -> float
(** [axpy_norm2 a x y]: y <- y + a·x; returns |y|².
    ≡ [Field.axpy a x y; Field.norm2 y] bit-for-bit. *)

val xpay_dot :
  ?pool:Util.Pool.t -> ?chunk:int -> t -> float -> t -> t -> float
(** [xpay_dot x beta p q]: p <- x + β·p; returns p·q (real part under
    the flat-float view, i.e. [Field.dot_re]).
    ≡ [Field.xpay x beta p; Field.dot_re p q] bit-for-bit. *)

val cg_update :
  ?pool:Util.Pool.t -> ?chunk:int -> float -> t -> t -> t -> t -> float
(** [cg_update alpha p ap x r]: x <- x + α·p; r <- r − α·Ap; returns
    |r|² — QUDA's tripleCGUpdate, the whole CG vector tail in one
    sweep. ≡ [Field.axpy alpha p x; Field.axpy (−alpha) ap r;
    Field.norm2 r] bit-for-bit (IEEE negation is exact). *)

val caxpy_norm2 :
  ?pool:Util.Pool.t -> ?chunk:int -> float * float -> t -> t -> float
(** [caxpy_norm2 (re, im) x y]: y <- y + a·x with complex [a] over the
    interleaved layout; returns |y|².
    ≡ [Field.caxpy (re, im) x y; Field.norm2 y] bit-for-bit. *)

(** {2 Range terms}

    The serial loop of a kernel over floats [\[lo, hi)]: update, then
    return the block's partial. [Multi_blas] runs these per batch
    slot, so its slot [i] is the single kernel by construction. *)

val axpy_norm2_term : float -> t -> t -> int -> int -> float
val xpay_dot_term : t -> float -> t -> t -> int -> int -> float
val cg_update_term : float -> t -> t -> t -> t -> int -> int -> float
