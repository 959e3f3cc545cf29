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

(** {2 Launch geometry}

    Each launch decides its geometry once and hands the same value to
    the recorder ({!launch}) and to the pool ({!run}), so a recording
    states the pool and chunk the kernel used. The pool rule, the one
    dispatch rule of every kernel in the tree: the caller's pool when
    given, else [Util.Pool.get_default] when the launch's floats reach
    [parallel_cutoff]; a pool of one lane runs serially. *)

type geometry = {
  pool : Util.Pool.t;  (** more than one lane *)
  chunk : int;  (** items per job *)
  unit : int;  (** floats of the recorded vector per item *)
}

val fork_pool : Util.Pool.t option -> floats:int -> int -> Util.Pool.t option
(** [fork_pool pool ~floats n]: the pool [n] items over [floats] floats
    fork on — the pool rule's pick when it has more than one lane and
    [n > 1]; else [None], serial. *)

val default_chunk : Util.Pool.t -> floats:int -> unit:int -> int
(** The default chunk of every launch in the tree:
    [Util.Pool.default_chunk] on the launch's [floats], counted in
    whole items of [unit] floats, at least one item. The units are a
    float, a complex pair, a [reduce_block], a stencil site of all its
    columns and the stencil tail's tile. *)

val geometry :
  ?pool:Util.Pool.t -> ?chunk:int -> ?unit:int -> floats:int -> int -> geometry option
(** The kernels' rule over [n] items of [unit] floats (default 1): a
    caller's [chunk] is in floats, rounded down to whole items and
    floored at one item; by default {!default_chunk}. A non-positive
    chunk is kept, so it is recorded as given before
    [Util.Pool.parallel_for] rejects it. *)

val run : geometry option -> n:int -> (int -> int -> unit) -> unit
(** [run g ~n range]: [range lo hi] over the items [\[0, n)], pooled
    under [g] or serially. *)

(** {2 The launch helper}

    Every kernel and operator entry in the tree — the kernels below,
    [Fused], [Multi_blas], the [Dirac.Wilson] and [Dirac.Mobius]
    entries, BiCGStab's p-update — describes its launch once: name,
    operands with their roles ([Util.Prof.read], [write], [update],
    [reduce]), length [n] in floats, geometry. {!launch_fold} runs the
    description in four steps:
    + a BLAS-1 launch ([sweeps = 1], the default) needs every operand
      to span [n] floats: ["kernel: length mismatch"];
    + PLAN002's rule ([Util.Prof.aliased]): a written or updated
      operand sharing storage with any other operand raises
      ["kernel: an output shares storage with another operand"]. The
      probe is physical equality, else a marker written through
      element 0 of the {e output} and restored, so an [Array1.sub]
      view is caught and launches with disjoint outputs can run side
      by side. A vector read twice is legal;
    + when [Util.Prof] records, the launch is reported at [g] (its
      chunk in floats), with [reduce_block] when an operand reduces;
    + the body runs, and with [Sanitize] on every written or updated
      operand, then every result, is trapped if non-finite.
    All failures are [Invalid_argument]. *)

val launch_fold :
  ?sweeps:int ->
  string ->
  geometry option ->
  n:int ->
  Util.Prof.operand list ->
  (unit -> float array) ->
  float array
(** [launch_fold kernel g ~n operands body]: the launch whose [body]
    returns its reductions' results, in the order of its [reduce]
    operands. *)

val launch :
  ?sweeps:int -> string -> geometry option -> n:int -> Util.Prof.operand list ->
  (unit -> unit) -> unit
(** {!launch_fold} for a launch that reduces nothing. *)

val check_aliasing : string -> Util.Prof.operand list -> unit
(** The aliasing step alone, for the entries that are not recorded
    ([Dirac.Wilson.hop_sites], the full [Dirac.Mobius] operator and
    its 5th-dimension pieces). *)

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

val reduction : ?pool:Util.Pool.t -> ?chunk:int -> int -> geometry option
(** [reduction n]: the geometry of a fold over [n] floats. Its items
    are blocks, so a chunk (in floats) counts whole blocks, as does
    {!default_chunk}. *)

val fold : geometry option -> n:int -> (int -> int -> float) -> float
(** [fold g ~n term]: the sum of [term lo hi] over the blocks of
    [\[0, n)], pooled under [g] (from {!reduction} of [n]). *)

val fold_k :
  geometry option -> n:int -> k:int -> (int -> int -> int -> float) -> float array
(** [fold_k g ~n ~k term]: [k] sums at once, slot [i] summing
    [term i lo hi] — each slot bit-identical to [fold g ~n (term i)].
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
    halves it to pairs, the reductions count it in blocks) and runs
    at the one {!geometry} it also records. All are
    bit-identical across pools and chunks. Each, [copy] and [blit]
    included, is one {!launch}: equal lengths, no aliased output,
    recorded, sanitized. *)

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

(** Opt-in NaN/Inf sanitizer. When [enabled], every {!launch} scans
    the vectors it wrote and checks the results it returned, naming the
    first kernel that produces a non-finite value — a stencil or
    operator entry included. [Half.encode] checks its input, which the
    codec would otherwise turn into 0. Off by default (one ref read per
    launch). *)
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
  (** [create ~block n]: [block] floats share one norm; block ≥ 1 and
      block ∣ n, else [Invalid_argument]. *)

  val length : h -> int
  val encode : t -> h -> unit
  val decode : h -> t -> unit

  val round_trip : t -> block:int -> t
  (** Encode then decode — the quantization the inner solver sees. *)
end
