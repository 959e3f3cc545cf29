(** Static checker for fused BLAS-1 kernel plans ([Linalg.Fused]):
    verifies that a fused launch keeps the canonical reduction
    association (bit-identity with the unfused kernels) and that no
    output operand aliases another role. Rule ids [FUSE001]–[FUSE002]. *)

type role = Read | Update

type plan = {
  kernel : string;  (** fused kernel name, e.g. ["cg_update"] *)
  n : int;  (** vector length in floats *)
  block : int;  (** reduction block the fused term accumulates over *)
  geometry : (int * int) option;  (** (domains, chunk); [None] = serial *)
  buffers : (string * role) list;  (** operand name → role *)
}

val rules : (string * string) list

val plan :
  ?geometry:int * int ->
  kernel:string ->
  n:int ->
  block:int ->
  buffers:(string * role) list ->
  unit ->
  plan

val verify_plan : plan -> Diagnostic.t list
val verify_plans : plan list -> Diagnostic.t list
