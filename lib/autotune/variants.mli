(** Launch configurations for the real OCaml kernels — the analogue of
    CUDA block/grid shape. One record names a launch on every axis a
    kernel family can have; a family's space crosses the axes it has,
    {!tune} returns the winning record, and the family's runner is the
    only code that executes one. Launches of a family differ only in
    speed: results are bit-identical across geometries, widths and
    modes, and agree within tolerance across codecs (link round-trip)
    and deflation ranks (solver tolerance). *)

type launch = {
  mode : Linalg.Fused.mode;
      (** BLAS-1 tail of a CG iteration ([Unfused] 5 sweeps, [Fused]
          3, [Tail_fused] 2 with p·Ap riding the stencil) *)
  k : int;  (** right-hand sides per gauge-link stream *)
  recon : Linalg.Su3_codec.codec;  (** gauge-link codec the hop streams *)
  geometry : (int * int) option;
      (** (domains, chunk) from [Util.Pool.shared]; [None] = serial, a
          one-lane pool *)
  rank : int;  (** deflation rank; 0 = undeflated *)
}

val baseline : launch
(** [Unfused], [k = 1], [Full18], serial, rank 0: the reference launch
    at the head of every family's space. *)

val label : launch -> string
(** ["<mode>_<codec>_k<k>_r<rank>_<serial | d<d>_c<c>>"], e.g.
    ["unfused_recon12_k4_r0_d2_c4096"]: injective, so a cached winner
    names exactly one launch. *)

val pool_geometries :
  ?max_domains:int -> ?chunk_floor:int -> n:int -> unit -> (int * int) list
(** The multicore launch axis: (ndomains, chunk) candidates for a
    problem of [n] elements. Domain counts are powers of two capped by
    [Domain.recommended_domain_count] (or [max_domains]) and
    [Util.Pool.max_domains]; chunks are the per-lane share and a
    quarter of it, floored at [chunk_floor] (default 1024). Empty on a
    single-core cap. *)

val space :
  ?modes:Linalg.Fused.mode list ->
  ?widths:int list ->
  ?codecs:Linalg.Su3_codec.codec list ->
  ?geometries:(int * int) list ->
  ?ranks:int list ->
  unit ->
  launch list
(** The cross product of the given axes, each defaulting to its
    {!baseline} value alone, with the serial geometry ahead of
    [geometries]. The first launch takes the head of every axis: it is
    the baseline whenever each axis leads with its baseline value. *)

val tune :
  ?max_domains:int ->
  ?lint:(launch -> string option) ->
  Tuner.t ->
  kernel:string ->
  signature:string ->
  space:(dmax:int -> launch list) ->
  (launch -> unit) ->
  launch
(** The one tune path. Clamps the domain cap ([max_domains], default
    [Domain.recommended_domain_count], at most [Util.Pool.max_domains])
    and builds [space ~dmax]; its first launch is the tuner's baseline.
    Candidates for which [lint] returns [Some reason] are dropped
    before anything is priced or cached — except the baseline, which
    is always searchable. [Tuner.tune] then times [run] on each under
    [signature ^ ":dmax<cap>:v<space-hash>"], and the winning launch
    itself is returned.
    @raise Invalid_argument on an empty space or two launches with one
    label. *)

(** {2 Runner} — re-times a {!tune_fusion} winner; a serial launch
    runs on [Util.Pool.shared ~domains:1]. *)

val run_fusion :
  p:Linalg.Field.t ->
  ap:Linalg.Field.t ->
  x:Linalg.Field.t ->
  r:Linalg.Field.t ->
  launch ->
  unit
(** One CG BLAS-1 tail iteration in the launch's [mode]: [Unfused]
    dot_re + axpy + axpy + norm2 + xpay (5 sweeps), [Fused] dot_re +
    cg_update + xpay_dot (3), [Tail_fused] cg_update + xpay_dot (2;
    p·Ap rides the stencil). All modes are bit-identical in the
    recurrence; only traffic differs. *)

(** {2 Kernel families} — each builds a space, a runner and a
    signature, and hands them to {!tune}. *)

val tune_hop :
  ?max_domains:int ->
  Tuner.t ->
  Dirac.Wilson.t list ->
  srcs:Linalg.Field.t array ->
  dsts:Linalg.Field.t array ->
  signature:string ->
  launch
(** Kernel ["wilson_hop"]: codec (one operator per codec, the first
    the baseline) × width ([1; 2; 4; 8] up to the batch size) ×
    serial + {!pool_geometries} at a 16-site chunk floor. A launch
    hops the batch in sub-batches of its [k] on the operator of its
    [recon]. Signature [signature ^ ":sites<n>:kmax<batch>"].
    @raise Invalid_argument on an empty or mismatched batch. *)

val tune_axpy : ?max_domains:int -> Tuner.t -> n:int -> launch
(** Kernel ["axpy"]: serial + {!pool_geometries} for vectors of [n]
    floats, timed on [y <- y + 0.5·x]. Signature ["n<n>"]. *)

val tune_fusion :
  ?max_domains:int ->
  ?lint:(launch -> string option) ->
  Tuner.t ->
  n:int ->
  launch
(** Kernel ["cg_blas1"]: the three modes × serial + {!pool_geometries}
    for vectors of [n] floats, timed by {!run_fusion}. Signature
    ["n<n>"]. Callers wrap [Check.Plan_check.lint_fusion] as [lint] so
    no plan the static analyzer rejects can be priced or cached. *)

val tune_deflation :
  Tuner.t ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  bs:Linalg.Field.t array ->
  signature:string ->
  launch
(** Kernel ["cg_deflate"]: ranks [0; 2; 4; 8], each priced on the
    Lanczos setup for the rank plus one CG solve to 1e-8 per
    right-hand side in [bs] — setup inside the timed
    region, since the amortization is the trade. Signature
    [signature ^ ":n<n>:s<solves>"].
    @raise Invalid_argument on an empty [bs]. *)
