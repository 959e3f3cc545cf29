(** Launch recorder: which kernels a piece of code launches, on which
    vectors, at which geometry. Every kernel and operator entry of
    [Linalg.Field], [Linalg.Fused], [Linalg.Multi_blas],
    [Dirac.Wilson] and [Dirac.Mobius] reports through
    [Linalg.Field.launch]; [Solver.Mixed.quantize] reports its codec
    passes, the solvers their iterations ({!mark}), and [Vrank.Comm]
    and [Vrank.Dd_wilson] each step of the halo protocol ({!halo}).
    [Check.Plan_record] turns a recording into a static plan;
    [Check.Halo_check] replays its halo steps.

    Off by default: {!launch}, {!quantize} and {!mark} then return
    after one ref read, and a {!halo} hook is one ref read that
    allocates nothing. A launch still builds its operand list, about
    ten words an operand, because [Linalg.Field.launch] checks aliasing
    over it recorded or not. Measured on a 2-vCPU Xeon, the list and
    the check cost a 24-float [Field.axpy] 34 minor words and 40–60 ns
    (it takes 100–125 ns), and a double-precision Schur CG on 4³×8 at
    L5 = 4 about 350 of its 1,789 minor words per iteration. Only the
    domain that called {!record} records; a pool worker's launches are
    not seen. *)

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

(** One step of the halo protocol, as [Check.Halo_check] replays it. *)
module Halo : sig
  type stencil = Full | Interior | Boundary  (** [Interior] reads no ghost *)

  type op =
    | Scatter  (** [Comm.scatter]: every rank's local sites rewritten *)
    | Write of int list  (** [Comm.mark_written] of these ranks; [[]] = all *)
    | Exchange of int array option  (** a blocking exchange; hand-built only *)
    | Post of int array option  (** [Comm.post ?faces] *)
    | Complete of int array option
        (** of these recv-side faces; [None] = every face in flight *)
    | Stencil of stencil
    | Stencil_faces of int array  (** a sub-stencil reading only these ghosts *)
end

type event =
  | Launch of launch
  | Quantize of vec * int  (** a half-codec pass, with its block *)
  | Mark of int * float
      (** an iteration boundary: the right-hand side's batch slot and
          its |r|² *)
  | Halo of Halo.op

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

val writes : role -> bool
(** [Write] or [Update]. *)

val aliased : ('a -> role) -> ('a -> 'a -> bool) -> 'a list -> 'a list
(** The aliasing rule of every launch: a vector it writes or updates
    appears in it once; a vector read twice is legal. [aliased role
    same ops]: each written [o] with [same o x] for another operand
    [x], [o] passed first so a storage probe writes only an output.
    [Linalg.Field.launch] passes a storage probe, PLAN002 name
    equality. *)

val launch :
  kernel:string ->
  n:int ->
  geometry:(int * int) option ->
  block:int option ->
  sweeps:int ->
  operand list ->
  unit
(** Record one launch, with each read's [range]. [Linalg.Field.launch]
    is the one caller. *)

val quantize : vec -> block:int -> unit
(** Record a half-codec pass; a no-op when off. *)

val mark : rhs:int -> float -> unit
(** [mark ~rhs r2]: right-hand side [rhs] (its batch slot, 0 in a
    single solve) ended an iteration with |r|² = [r2]. [Solver.Cg],
    [Solver.Mixed]'s inner loop and [Solver.Bicgstab] (after each of
    its two residual updates) mark; [Check.Plan_record] cuts an
    iteration of slot 0 at them. *)

val halo : Halo.op -> unit
(** Record a halo step that ran. Callers write [if !Util.Prof.on then
    Util.Prof.halo op], building [op] only when recording. *)
