(** Flat float64 Bigarray vectors (fermion-field storage) and the
    BLAS-1 kernels of the CG solver. Interleaved complex layout:
    element [2k] is the real part and [2k+1] the imaginary part of
    component k. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** Zero-initialized vector of [n] floats. *)

val length : t -> int
val copy : t -> t
val blit : t -> t -> unit
val fill : t -> float -> unit
val of_array : float array -> t
val to_array : t -> float array

val parallel_cutoff : int
(** Launches over fewer floats stay serial unless the caller passes a
    pool: the fork/join costs more than it hides.
    [Check.Plan_check] PLAN008 warns about pooled launches under it. *)

val reduce_block : int
(** Canonical reduction block (in floats). Every reduction sums each
    block serially and combines block partials in index order on
    every path — serial and pooled results are bit-identical for any
    pool geometry. *)

val launch_pool : Util.Pool.t option -> int -> Util.Pool.t option
(** [launch_pool pool n]: the pool a launch over [n] floats runs on —
    [pool] when given, else [Util.Pool.get_default] when it has more
    than one lane and [n] is at least [parallel_cutoff], else [None]
    (serial). The one dispatch rule of every kernel in the tree. *)

(** {2 The canonical reduction}

    Floats [\[0, n)] are cut into blocks of [reduce_block]; each
    block's partial is accumulated serially in index order by one
    lane, and the partials are summed from [0.] in block order on the
    calling domain, a lone block's partial returned as is. Any [term]
    that updates a block element-wise and then accumulates it in index
    order is bit-identical to running the update kernel followed by
    the standalone reduction, for every pool geometry — the contract
    the fused kernels ([Fused], [Multi_blas], the stencil tails) rest
    on. [?chunk] is in floats, counted in whole blocks. *)

val fold :
  ?pool:Util.Pool.t -> ?chunk:int -> n:int -> (int -> int -> float) -> float
(** [fold ~n term]: the sum of [term lo hi] over the blocks of
    [\[0, n)], on [launch_pool pool n]. *)

val fold_k :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  n:int ->
  k:int ->
  (int -> int -> int -> float) ->
  float array
(** [fold_k ~n ~k term]: [k] sums at once, slot [i] summing
    [term i lo hi] — each slot bit-identical to [fold ~n (term i)].
    The block loop is outside the slot loop, so one pass over a block
    runs every slot while it is hot. *)

val fold_partials :
  n:int -> (((int -> int -> float) -> int -> int -> unit) -> unit) -> float
(** [fold_partials ~n run]: the fold for callers that launch their own
    passes. [run record] calls [record term lo hi] on float ranges
    with [lo] block-aligned (a stencil tiled at whole blocks), which
    stores [term blo bhi] for every block in [\[lo, hi)]; the partials
    of [\[0, n)] are then summed as in [fold]. *)

(** {2 Kernels}

    Every kernel takes [?pool ?chunk] ([chunk] in floats; [caxpy]
    halves it to pairs) and runs on [launch_pool pool n]. All are
    bit-identical across pools and chunks, and the [Sanitize] hooks
    run on every path. *)

val axpy : ?pool:Util.Pool.t -> ?chunk:int -> float -> t -> t -> unit
(** [axpy a x y]: y <- y + a·x. *)

val xpay : ?pool:Util.Pool.t -> ?chunk:int -> t -> float -> t -> unit
(** [xpay x a y]: y <- x + a·y. *)

val scale : ?pool:Util.Pool.t -> ?chunk:int -> float -> t -> unit

val sub : ?pool:Util.Pool.t -> ?chunk:int -> t -> t -> t -> unit
(** [sub x y z]: z <- x − y. *)

val caxpy : ?pool:Util.Pool.t -> ?chunk:int -> float * float -> t -> t -> unit
(** [caxpy (re, im) x y]: y <- y + a·x with complex a. *)

val norm2 : ?pool:Util.Pool.t -> ?chunk:int -> t -> float
val norm : t -> float

val dot_re : ?pool:Util.Pool.t -> ?chunk:int -> t -> t -> float
(** Real part of the complex inner product. *)

val cdot : ?pool:Util.Pool.t -> ?chunk:int -> t -> t -> Cplx.t
(** Complex inner product sum conj(x_k)·y_k: two [fold_k] slots. *)

val gaussian : Util.Rng.t -> t -> unit
(** Fill with unit-variance Gaussian noise. *)

(** Opt-in NaN/Inf sanitizer for the BLAS-1 hot paths. When [enabled],
    [axpy]/[xpay]/[scale]/[sub]/[caxpy] scan their output vector and
    [norm2]/[dot_re]/[cdot] check their result, naming the first kernel
    that produces a non-finite value. Off by default (one ref read per
    kernel call). *)
module Sanitize : sig
  exception Non_finite of string * int * float
  (** [(kernel, index, value)]; [index] is [-1] for reduction results. *)

  val enabled : bool ref

  val raising : bool ref
  (** [true] (default): raise [Non_finite] at the first trap.
      [false]: record traps and keep going. *)

  val trap_count : int ref
  val max_recorded : int

  val recorded : (string * int * float) list ref
  (** Most recent first; capped at [max_recorded] entries. *)

  val reset : unit -> unit

  val check_scalar : string -> float -> float
  val check_vec : string -> t -> unit

  val scoped : ?raise_on_trap:bool -> (unit -> 'a) -> 'a
  (** Run with the sanitizer on (trap log cleared), restoring the
      previous sanitizer state afterwards. The trap log survives the
      call for inspection. *)
end

val map2 : (float -> float -> float) -> t -> t -> t -> unit
val max_abs_diff : t -> t -> float

(** 16-bit fixed-point storage with per-block float32 norms — the
    paper's half-precision format for the inner CG. *)
module Half : sig
  type h = {
    data : (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t;
    norms : (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t;
    block : int;
  }

  val max_q : float

  val create : block:int -> int -> h
  (** [create ~block n]: [block] floats share one norm; block ∣ n. *)

  val length : h -> int
  val encode : t -> h -> unit
  val decode : h -> t -> unit

  val round_trip : t -> block:int -> t
  (** Encode then decode — the quantization the inner solver sees. *)
end
