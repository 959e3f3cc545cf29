(** Launch recorder: which kernels a piece of code launches, on which
    vectors, at which geometry. The [Linalg.Field], [Linalg.Fused] and
    [Linalg.Multi_blas] kernels, the [Dirac.Wilson] and [Dirac.Mobius]
    operator entries and [Solver.Mixed.quantize] report to it, and
    [Check.Plan_record] turns a recording into a static plan.

    Off by default: a hook reads {!on} and does nothing more when it is
    [false] — one ref read, no allocation. Only the domain that called
    {!record} records; a pool worker's launches are not seen. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type role = Read | Write | Update | Reduce

type operand = {
  role : role;
  vec : vec option;  (** [None] for [Reduce], the scalar a reduction returns *)
  rhs : int;  (** slot in a batched launch; 0 in a single one *)
  range : (float * float) option;
      (** a read's smallest nonzero and largest magnitude as the launch
          starts ((0, 0) for an all-zero vector) *)
}

type launch = {
  kernel : string;
  operands : operand list;
  n : int;  (** length in floats *)
  geometry : (int * int) option;  (** (lanes, chunk in floats); [None] = serial *)
  block : int option;  (** reduction block, when an operand is [Reduce] *)
  sweeps : int;  (** 1 for a BLAS-1 kernel, 0 for a stencil or operator *)
}

type event =
  | Launch of launch
  | Quantize of vec * int  (** a half-codec pass, with its block *)
  | Mark  (** an iteration boundary *)

val on : bool ref
(** [true] while {!record} runs; only {!record} sets it. *)

val record : (unit -> 'a) -> 'a * event list
(** [record f]: [f ()] and the events it produced, in order. The
    previous state is restored on exit, exception or not. *)

val read : vec -> operand
val write : vec -> operand
val update : vec -> operand
val reduce : operand

val batch : int -> (int -> operand list) -> operand list
(** [batch k f]: the operands [f i] of right-hand side [i < k], tagged. *)

val launch :
  kernel:string ->
  n:int ->
  geometry:(int * int) option ->
  block:int option ->
  sweeps:int ->
  operand list ->
  unit
(** Record one launch, with each read's [range]. Callers test {!on}. *)

val quantize : vec -> block:int -> unit
val mark : unit -> unit
(** Record a half-codec pass, or an iteration boundary (a solver's
    [?trace]); no-ops when off. *)

val muted : ('a -> 'b) -> 'a -> 'b
(** [muted f x]: [f x] unrecorded — an operator entry records itself
    as one launch, not the kernels it runs inside. *)
