(** Sources and the 4D ↔ 5D domain-wall boundary maps. *)

val fps : int
(** 24 floats per 4D spinor site. *)

val point : Lattice.Geometry.t -> site:int -> spin:int -> color:int -> Linalg.Field.t
val wall : Lattice.Geometry.t -> t:int -> spin:int -> color:int -> Linalg.Field.t
(** Unit source at one site, or on every site of time slice [t].
    @raise Invalid_argument on a spin, colour or [t] out of range. *)

val noise : Lattice.Geometry.t -> Util.Rng.t -> t:int -> Linalg.Field.t
(** Gaussian noise on one timeslice (stochastic estimators).
    @raise Invalid_argument on a [t] out of range. *)

val to_5d : l5:int -> Lattice.Geometry.t -> Linalg.Field.t -> Linalg.Field.t
(** 4D source → 5D domain-wall source:
    B = P+ η on slice 0, P− η on slice L5−1.
    @raise Invalid_argument unless η has volume×24 floats. *)

val to_4d : l5:int -> Lattice.Geometry.t -> Linalg.Field.t -> Linalg.Field.t
(** 5D solution → 4D quark field at the walls:
    q = P− ψ(0) + P+ ψ(L5−1).
    @raise Invalid_argument unless ψ has L5×volume×24 floats. *)

val apply_spin_matrix :
  Linalg.Cplx.t array array -> Linalg.Field.t -> Linalg.Field.t
(** Apply a 4×4 spin matrix to every site of a 4D field.
    @raise Invalid_argument on a length that is not whole sites. *)
