(** Mixed-precision CG with reliable updates — the paper's double-half
    solver. Inner iterations run on 16-bit fixed-point storage
    ([Linalg.Field.Half]); the residual is recomputed exactly in double
    precision at each reliable update. All reductions are double
    precision. Its kernels and quantize points report to [Util.Prof]:
    the [mixed] plans are recordings of [solve]. *)

type config = {
  tol : float;
  max_iter : int;
  delta : float;  (** reliable-update trigger: residual drop factor *)
  block : int;  (** floats sharing one half-precision norm (24 = site) *)
}

val default_config : config

val validate_config : n:int -> config -> (unit, string) result
(** Structural validity against a vector of [n] floats: positive
    [block] dividing [n], finite positive [tol], positive [max_iter],
    [delta] strictly inside (0,1). [solve] checks this at entry and
    raises [Invalid_argument] on failure. *)

val quantize : block:int -> Linalg.Field.t -> unit
(** Round-trip a vector through the half codec in place — the storage
    precision the inner solve sees. Reported to [Util.Prof] as a
    quantize point. *)

val solve :
  ?config:config ->
  ?deflate:Deflate.t ->
  ?fused:bool ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  b:Linalg.Field.t ->
  flops_per_apply:float ->
  unit ->
  Linalg.Field.t * Cg.stats
(** Requires [config.block] to divide the vector length. If the
    half-precision noise floor is reached before [config.tol], returns
    with [converged = false]; callers can polish in double precision
    (see [Dwf_solve.solve]).

    [fused] (default [false]) runs both the inner sloppy loop and the
    outer reliable-update residual through the single-pass
    [Linalg.Fused] kernels — bit-identical trajectory, iteration count
    and reliable-update count vs the unfused path for any pool
    geometry. Each inner iteration ends in [Util.Prof.mark ~rhs:0]
    with its |r|² (post-quantization, the value the recurrence uses).

    [deflate] lives entirely in the outer double-precision world: the
    low-mode guess is folded into x at entry and the deflated span is
    cleaned out of the exact residual at every reliable update (one
    extra double-precision apply each), while the half-precision inner
    loop runs unmodified. Absent, the solve is bit-identical to
    before.
    @raise Invalid_argument on a non-finite |b|² or starting |r|². *)

val solve_multi :
  ?config:config ->
  ?deflate:Deflate.t ->
  ?fused:bool ->
  apply:(Linalg.Field.t array -> Linalg.Field.t array -> unit) ->
  bs:Linalg.Field.t array ->
  flops_per_apply:float ->
  unit ->
  Linalg.Field.t array * Cg.stats array
(** Batched hook mirroring [Cg.solve_multi]'s surface for the
    mixed-precision solver. The half-precision inner loop's
    quantization state is per-vector, so the current implementation
    advances the k systems as independent [solve]s over width-1
    batches of [apply] — per RHS bit-identical by construction. The
    inner iterations of system [i] mark with [~rhs:i]. *)
