(** Wilson hopping stencil and operator. One table-driven kernel serves
    the full-volume, domain-decomposed and checkerboarded cases, and
    one site body serves every entry point: per 4D site it runs a set
    of columns (L5 slices × k sources) with one link fetch per
    (site, μ, side) for the whole set — the plain hop is L5 = k = 1,
    the batched hop k > 1, the Möbius chain ({!stencil}) L5 > 1.

    The full-volume and checkerboard constructors take [?recon]
    (default [Full18]): the gauge codec of the link store. Packed codecs ([Recon12]/[Recon8],
    [Lattice.Recon]) store 12/8 reals per link and reconstruct the
    full matrix into a per-body scratch at the point of use, so for a
    fixed codec results are bit-identical across pool geometries.
    [Full18] fetches are exact float64 copies.

    Every entry checks its fields: a dst shorter than the written
    sites, a src shorter than the sites the tables read (the source
    extent recorded at construction), a batch of mismatched width or
    a [hop_sites] site outside [\[0, n_sites)] raises
    [Invalid_argument]. [hop], [hop_multi], [hop_tail], [apply] and
    [apply_dagger] each run as one [Linalg.Field.launch_fold], the
    full link field listed as read: a dst (or a tail output or [q])
    that shares storage with another operand raises
    [Invalid_argument] naming the entry, the launch is recorded when
    [Util.Prof] records, and the sanitizer traps a non-finite dst at
    the entry. [hop_sites], which is not recorded, checks aliasing
    through the same rule ([Linalg.Field.check_aliasing]). *)

type t

val floats_per_site : int

val recon : t -> Linalg.Su3_codec.codec
(** The codec this operator's link store was built with. *)

val of_geometry :
  ?recon:Linalg.Su3_codec.codec -> Lattice.Geometry.t -> Lattice.Gauge.t -> t
(** Full-volume operator; source and destination are volume×24 floats. *)

val of_domain_rank : Lattice.Domain.rank_geometry -> Linalg.Field.t -> t
(** Rank-local operator over a full link store; the source must cover
    the extended volume (ghost slots filled by halo exchange), gauge
    from [Lattice.Domain.gather_gauge]. *)

val of_checkerboard :
  ?recon:Linalg.Su3_codec.codec ->
  Lattice.Geometry.t ->
  Lattice.Gauge.t ->
  parity:int ->
  t
(** Hopping from the opposite parity onto sites of [parity]; fields are
    indexed by checkerboard (eo) index, half_volume×24 floats. *)

val hop :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  t ->
  src:Linalg.Field.t ->
  dst:Linalg.Field.t ->
  unit
(** dst <- H src (the full hopping sum), on {!launch}'s pool with
    [chunk] in sites; site-partitioned, so results are bit-identical
    for every pool and chunk. *)

val hop_multi :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  t ->
  srcs:Linalg.Field.t array ->
  dsts:Linalg.Field.t array ->
  unit
(** Batched multi-RHS hop: [dsts.(v) <- H srcs.(v)] for every v, with
    each gauge-link element loaded once per site and applied to all k
    half-spinors before the next — the k-fold link-traffic
    amortization [Machine.Perf_model.mrhs_bytes_per_site] prices. Per
    RHS the float operations are exactly [hop]'s (same operands, same
    order), so every dst is bit-identical to the independent [hop] for
    any batch width and pool geometry. Batch must be non-empty, srcs
    and dsts the same width, no dst sharing storage with any other
    operand of the batch ([Invalid_argument]). Without a pool, the
    *batch* float count decides ({!launch}). The autotuner's hop family
    ([Autotune.Variants.tune_hop]) launches it for every codec, batch
    width and geometry. *)

val hop_tail :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  t ->
  src:Linalg.Field.t ->
  dst:Linalg.Field.t ->
  tail:Linalg.Fused.tail ->
  float
(** [hop] with the output tail fused into the stencil pass: per
    site-tile, right after the stencil result is written, the tail's
    optional xpay ([out <- dst + beta·out]) and dot accumulation run
    while the tile is hot — the QUDA move of folding trailing linear
    algebra into the dslash, which removes the separate full-vector
    sweep the p·Ap reduction otherwise costs ([Check.Plan_check]
    PLAN005). Returns the dot. Bit-identical to
    [hop; Fused.xpay_dot dst beta out q] (resp. [hop; Field.dot_re q
    dst] without the xpay) for any pool geometry: [chunk] (in sites)
    is rounded up to whole reduction tiles (256 sites), so the tail
    runs on whole [Field.reduce_block]s whose partials
    [Field.fold_partials] sums in index order; the default chunk is
    [Field.default_chunk] counted in whole tiles. Neither the tail
    output nor [q] may share storage with [dst] ([Invalid_argument]). *)

val hop_sites :
  t -> ?sites:int array -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit -> unit
(** Restrict the stencil to [sites] (interior/boundary split for
    communication overlap). *)

val apply : t -> mass:float -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** Full Wilson operator M = (4 + mass) − H/2, the diagonal term
    applied in the stencil's store. *)

val apply_dagger :
  t -> mass:float -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** M† = gamma5·M·gamma5, as exact sign flips: the gamma5-conjugated
    body negates the partner-spin loads, the store the spin-2/3
    outputs. *)

(** {2 The 5D entry} *)

val stencil :
  t ->
  l5:int ->
  src_stride:int ->
  g5:bool ->
  srcs:Linalg.Field.t array ->
  store:(float array -> int -> unit) ->
  unit
(** The site body over every written site, one column per (v, s):
    slice [s] of [srcs.(v)] starts at float [s·src_stride]. For each
    site [x] the body accumulates H of every column into a fresh
    [acc] (column [v·l5 + s] at floats [(v·l5 + s)·24] onward) with
    one link fetch per (μ, side), then calls [store acc x], which owns
    every write — the Möbius chain's −½ scale, accumulate and
    s-combination happen there. [g5] runs the gamma5-conjugated
    stencil up to the output sign: partner-spin (2, 3) loads negated,
    so [store] must negate spins 2, 3 itself. Each column's floats are
    bit-identical to [hop] on that slice alone. [store] must write only
    at site [x] (site-partitioned launches run it concurrently).
    Dispatches like {!launch} with [cols = l5·k]; a source shorter
    than its last column raises [Invalid_argument]. *)

val geometry :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  cols:int ->
  n:int ->
  unit ->
  Linalg.Field.geometry option
(** The geometry of a stencil launch over [n] sites of [cols] columns:
    pooled by the [Linalg.Field] pool rule on cols·n·24 floats, in chunks
    of [chunk] sites (default: [Linalg.Field.default_chunk] on those
    floats, counted in sites of cols·24 floats), each site 24 floats
    of one recorded column. The entries decide it once and hand it to
    the recorder and the launch. *)

val launch :
  ?pool:Util.Pool.t ->
  ?chunk:int ->
  cols:int ->
  n:int ->
  (int -> int -> unit) ->
  unit
(** [launch ~cols ~n range]: run [range lo hi] over [\[0, n)] sites at
    {!geometry}, or serially when that is [None]. The launch of every
    stencil entry. *)
