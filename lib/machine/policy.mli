(** Communication policies for the multi-GPU stencil — the option space
    the paper's communication autotuner searches (Sec. V). *)

type transfer = Staged_mpi | Zero_copy | Gdr
type granularity = Coarse | Fine
type t = { transfer : transfer; granularity : granularity }

val all_granularities : granularity list

val all : t list
(** Ordered best-path-first so ties resolve toward the more direct
    transfer. *)

val transfer_name : transfer -> string
val granularity_name : granularity -> string
val name : t -> string

val available : t -> Spec.t -> bool
(** GDR requires machine support (absent on Sierra/Summit at
    submission time). *)

val internode_bw_per_gpu : t -> Spec.t -> float
(** Effective inter-node bytes/s per GPU before network contention. *)

val messages : t -> decomposed_dims:int -> int
val halo_kernel_launches : t -> decomposed_dims:int -> int
val overlaps : t -> bool
(** Fine-grained policies overlap communication with interior compute. *)

val transport_ok : t -> Transport.t -> bool
(** Is a [Vrank.Comm] transport model honest for this policy's transfer
    path? [Staged_mpi] must not be modeled [Zero_copy] (invents a race
    the staging copy prevents); [Zero_copy]/[Gdr] must not be modeled
    [Staged] (hides the race the wire really has). The mismatch is rule
    HALO013 in [Check.Halo_check]. *)
