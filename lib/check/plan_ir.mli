(** Kernel-effect intermediate representation of a solve plan.

    A plan is the static artifact [Plan_check] verifies {e without
    running a solve}: a vector length, named buffers carrying a storage
    precision tag (and optionally an abstract magnitude range seeding
    the precision-flow pass), and a step sequence of kernel launches
    with per-operand effects and half-codec quantize points.
    [Plan_record] builds it from a [Util.Prof] recording of live code;
    the printer/parser pair is exact (round-trip asserted by a qcheck
    property), so plans can be dumped with [neutron_check --plan-dump]
    and diffed. *)

type precision =
  | Double
  | Single
  | Half of int  (** half codec with the given floats-per-block *)
  | Su3 of Linalg.Su3_codec.codec
      (** compressed gauge-link store ([Lattice.Recon]): reconstructed
          in registers at the point of use, never quantized —
          [Plan_check] PREC004 flags a [Quantize] step on such a
          buffer *)

type role = Util.Prof.role =
  | Read
  | Write
  | Update  (** read-modify-write *)
  | Reduce
      (** the scalar a reduction kernel produces (a register/allreduce
          value, not a vector buffer) *)
(** The recorder's roles, so a recorded operand keeps its own. *)

type buffer = {
  bname : string;
  prec : precision;
  range : (float * float) option;
      (** abstract magnitude interval [lo, hi] at plan entry; [None] =
          unknown *)
}

type kernel = {
  kname : string;
  args : (string * role) list;  (** operand name -> effect, call order *)
  geometry : (int * int) option;
      (** pooled (domains, chunk); [None] = serial *)
  partition : (int * int) array option;
      (** explicit chunk partition; [None] with a geometry means the
          canonical [Util.Pool.chunks] *)
  block : int option;  (** reduction block for [Reduce]-bearing kernels *)
  sweeps : int;
      (** full-vector memory sweeps this launch costs (0 = priced
          elsewhere, e.g. riding the stencil) *)
}

type step =
  | Launch of kernel
  | Quantize of { qbuf : string; qblock : int }
      (** half-codec encode/decode point *)

type plan = {
  pname : string;
  n : int;  (** vector length in floats *)
  fusion : bool option;
      (** for model-priced BLAS-1 tails: the fusion mode
          [Machine.Perf_model.blas1_sweeps] prices the plan at; [None]
          = not model-priced *)
  buffers : buffer list;
  steps : step list;
}

(** {2 Constructors} *)

val buffer : ?range:float * float -> prec:precision -> string -> buffer

val kernel :
  ?geometry:int * int ->
  ?partition:(int * int) array ->
  ?block:int ->
  ?sweeps:int ->
  args:(string * role) list ->
  string ->
  kernel
(** [sweeps] defaults to 1. *)

val plan :
  ?fusion:bool ->
  n:int ->
  buffers:buffer list ->
  steps:step list ->
  string ->
  plan

val find_buffer : plan -> string -> buffer option
val launches : plan -> kernel list

(** {2 Printing and parsing} *)

val name_ok : string -> bool
(** Plan/buffer/kernel names the textual format can carry:
    [[a-zA-Z0-9_.+-]+]. *)

val string_of_precision : precision -> string

val to_string : plan -> string
(** Exact textual form (floats printed in [%h] hex so the round-trip
    through {!of_string} is bit-identical). *)

val of_string : string -> (plan, string) result
