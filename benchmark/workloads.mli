(** The benchmark's four workloads and the runner that times them.

    Every workload is closed-loop with one client: the next timed unit
    starts when the previous one has finished. Inputs (gauge fields,
    sources, right-hand sides, Lanczos start vectors) are derived from
    the seed alone. Timing happens here, around calls into the
    library's public functions; the library itself is not modified. *)

type sizes = {
  campaign_dims : int array;
  l5 : int;
  n_thermalize : int;
  n_decorrelate : int;
  n_configs : int;
  mixed_dims : int array;
  mixed_sweeps : int;
  mixed_columns : int;
  batch_k : int;
  lanczos_rank : int;
  lanczos_restarts : int;
  dd_dims : int array;
  dd_solves : int;
  min_units : int;
}

val full : sizes
(** The sizes the benchmark runs. *)

val toy : sizes
(** Tiny sizes for the smoke test: same code paths, a few seconds in
    total. *)

val names : string list
(** [campaign; mixed_pooled; mrhs_deflate; dd_halo]. *)

val end_to_end : (string * string) list
(** [(metric, unit)] printed by an untraced run. *)

val per_layer : (string * string) list
(** [(metric, unit)] printed by a traced run. A layer the workload does
    not call reads 0. *)

type result = {
  workload : string;
  lanes : int;
  attempted : int;  (** timed units, plus the setup when untraced *)
  failed : int;  (** operations with at least one failed gate *)
  gates : (string * int * int) list;  (** gate, passed, failed *)
  metrics : (string * float * string) list;
      (** exactly [end_to_end] (untraced) or [per_layer] (traced), in
          that order *)
  samples : (string * float array) list;
      (** every sample behind a sampled end-to-end metric, in run order *)
}

val run :
  sizes ->
  workload:string ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  out_dir:string ->
  result
(** Run one workload in this process. Untraced: three timed setups, then
    units until [seconds] have passed (at least [min_units]). Traced: one
    setup, then pairs of an untraced and a traced unit on the same input
    until [seconds] have passed, then the microbenchmarks; the spans are
    written to [out_dir]/trace-<workload>-<seed>.jsonl. Raises
    [Invalid_argument] on an unknown workload. *)
