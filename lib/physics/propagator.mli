(** Quark propagators: 12 domain-wall solves (4 spins × 3 colors) from
    a common source — the expensive ingredient of the workflow (~97% of
    execution in the paper). *)

type t = {
  geom : Lattice.Geometry.t;
  columns : Linalg.Field.t array;  (** index src_spin·3 + src_color *)
  midpoint : Linalg.Field.t array option;
      (** 5D-midpoint columns (residual-mass current), when requested *)
  stats : Solver.Cg.stats list;
}

val column_index : spin:int -> color:int -> int

val midpoint_4d : l5:int -> Lattice.Geometry.t -> Linalg.Field.t -> Linalg.Field.t
(** The J5q wall of a 5D solution: P− ψ(L5/2) + P+ ψ(L5/2 − 1). *)

val compute :
  ?precision:Solver.Dwf_solve.precision ->
  ?tol:float ->
  ?keep_midpoint:bool ->
  Solver.Dwf_solve.t ->
  source:(spin:int -> color:int -> Linalg.Field.t) ->
  t

val point_propagator :
  ?precision:Solver.Dwf_solve.precision ->
  ?tol:float ->
  ?keep_midpoint:bool ->
  Solver.Dwf_solve.t ->
  src_site:int ->
  t

val get :
  t -> site:int -> spin:int -> color:int -> src_spin:int -> src_color:int ->
  Linalg.Cplx.t
(** G(site)_{spin,color; src_spin,src_color}. *)

val total_flops : t -> float
val total_iterations : t -> int

val map : t -> (Linalg.Field.t -> Linalg.Field.t * Solver.Cg.stats) -> t
(** Column-wise derived propagator, one solve per column (e.g. an FH
    solve): [f column] returns the new column and the stats of the
    solve that built it. The result carries those stats in column
    order, not the input's. Midpoint data does not transport. *)

val residual_mass : t -> float
(** m_res = Σt ⟨J5q(t)P(0)⟩ / Σt ⟨P(t)P(0)⟩ — the standard domain-wall
    chiral-symmetry-breaking measure; → 0 as L5 → ∞. Requires
    [keep_midpoint:true].
    @raise Invalid_argument otherwise. *)
