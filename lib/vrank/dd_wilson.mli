(** Domain-decomposed Wilson operator over virtual ranks: the paper's
    stencil communication recipe (pack → post → interior → per-face
    complete + boundary), verified against the single-domain oracle. *)

type t = {
  dom : Lattice.Domain.t;
  comm : Comm.t;
  kernels : Dirac.Wilson.t array;
  gauges : Linalg.Field.t array;
  face_needs : (int * int) array array;
      (** per rank: (boundary site, bitmask of ghost faces its stencil
          reads) *)
}

val create : ?transport:Comm.transport -> Lattice.Domain.t -> Lattice.Gauge.t -> t
(** [transport] (default [Staged]) selects the halo buffer management
    every exchange of this operator uses — including the posts inside
    [hop_overlapped] and the solves [Dd_solve] runs on top of it. All
    three transports produce bit-identical results when nothing writes
    the source between post and complete; [Zero_copy] delivers corrupt
    ghosts (and counts them) when something does. Raises
    [Invalid_argument] on a gauge field of another lattice. *)

val comm : t -> Comm.t

val hop : t -> fields:Linalg.Field.t array -> dsts:Linalg.Field.t array -> unit
(** Blocking exchange, then the full stencil on every rank; reports
    [Stencil Full] to [Util.Prof] after the stencil ran. *)

val default_order : int array
(** Face completion order 0..7. *)

val hop_overlapped :
  ?granularity:Machine.Policy.granularity ->
  ?order:int array ->
  t ->
  fields:Linalg.Field.t array ->
  dsts:Linalg.Field.t array ->
  unit
(** Post every face, run the interior stencil while the messages are in
    flight, then complete faces in [order] (default 0..7). [Fine]
    (default) runs each boundary site's sub-stencil as soon as the last
    ghost face it reads lands; [Coarse] completes everything first and
    runs one boundary sweep — the two halves of the paper's
    communication-granularity policy axis. In strict mode every
    sub-stencil asserts the freshness of exactly the faces it reads, at
    the point it reads them.

    Each stencil phase reports to [Util.Prof] after it ran:
    [Stencil Interior]; then fine-grained, one [Stencil_faces] per
    completion step that ran sub-stencils, naming the ghost faces they
    read; coarse-grained, [Stencil Boundary]. *)

val hop_global :
  ?overlapped:bool ->
  ?granularity:Machine.Policy.granularity ->
  ?order:int array ->
  t ->
  Linalg.Field.t ->
  Linalg.Field.t
(** Convenience: scatter a global field, apply, gather. *)

val apply_global : t -> mass:float -> Linalg.Field.t -> Linalg.Field.t
(** Full Wilson operator (4 + m) − H/2 across ranks. *)
