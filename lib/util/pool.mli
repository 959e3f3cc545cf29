(** Persistent domain pool for the multicore kernel engine: workers
    spawned once and parked on a Condition, one fork/join per kernel
    launch.

    Determinism contract: chunk boundaries are a pure function of
    (n, chunk), so element-wise kernels are bit-identical to the
    serial loop; the reductions built on [parallel_for]
    ([Linalg.Field.fold_k], and [Linalg.Field.fold_partials] under
    [Dirac.Wilson.hop_tail]) store per-block partials in index slots
    and fold them in index order on the calling domain, bit-stable
    for any geometry. A pool of size 1 runs jobs inline, chunk by
    chunk in index order. Nested launches (from a worker, or from the
    owner while a job is live) degrade to the inline serial path
    instead of deadlocking. *)

type t

val max_domains : int
(** Hard cap on pool width (well under the runtime's domain limit). *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns [domains - 1] worker domains (the
    caller is the last lane). Default: [Domain.recommended_domain_count].
    Raises [Invalid_argument] when [domains < 1]; capped at
    [max_domains]. *)

val size : t -> int
(** Total lanes, workers + caller; 1 means fully serial. *)

val shutdown : t -> unit
(** Stop and join the workers. Idempotent. Jobs launched after
    shutdown run inline serially. *)

val chunks : n:int -> chunk:int -> (int * int) array
(** The exact partition of [0, n) a launch with this geometry uses:
    [(i·chunk, min n ((i+1)·chunk))]. Pure; shared with
    [Check.Plan_check] so the verifier audits the real geometry. *)

val default_chunk : t -> int -> int
(** [default_chunk t floats]: ~4 chunks per lane with a floor of 1024
    floats. Deterministic in (pool size, floats). [Linalg.Field.default_chunk]
    counts it in a launch's items. *)

val parallel_for : t -> chunk:int -> n:int -> (int -> int -> unit) -> unit
(** [parallel_for t ~chunk ~n f] runs [f lo hi] over the chunk
    partition of [0, n); a non-positive [chunk] raises
    [Invalid_argument]. Which lane runs which chunk is unspecified; any [f] whose
    writes depend only on the element index is bit-identical to the
    serial loop. Exceptions from chunks are re-raised (first one) on
    the calling domain after the join. *)

val set_default : t -> unit

val get_default : unit -> t
(** The process-wide pool the [Field]/[Dirac] kernels dispatch on.
    Created on first use honoring [NEUTRON_DOMAINS] (default 1, i.e.
    serial — parallel execution is strictly opt-in). Raises
    [Invalid_argument] when [NEUTRON_DOMAINS] is set but malformed: a
    requested width must never silently degrade to serial. *)

val parse_domains : string -> (int, string) result
(** [NEUTRON_DOMAINS] syntax: a positive integer, capped at
    [max_domains]. Malformed or non-positive values are [Error] with a
    message naming the variable and the offending value. *)

val shared : domains:int -> t
(** Spawn-once registry keyed by domain count — the autotuner's pooled
    candidates draw from here so geometry sweeps never respawn. *)

val shutdown_shared : unit -> unit
(** Shut down and clear every [shared] pool (resetting the default if
    it was one of them). Idle workers still join every stop-the-world
    GC section, so quiesce the registry after a tuning sweep or test
    suite; later [shared] calls respawn on demand. *)
