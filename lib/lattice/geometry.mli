(** 4D periodic lattice geometry with even/odd checkerboarding.
    Directions mu = 0,1,2,3 are x,y,z,t; site indexing is lexicographic
    with x fastest. *)

type t

val n_dim : int

val create : int array -> t
(** [create [|lx; ly; lz; lt|]]; every extent even and ≥ 2, so the
    periodic wrap flips parity and the even/odd checkerboard holds.
    @raise Invalid_argument otherwise. *)

val volume : t -> int
val dims : t -> int array
val half_volume : t -> int

val fwd : t -> int -> int -> int
(** [fwd t site mu] is the site one step forward in direction [mu]
    (periodic). *)

val fwd_table : t -> int array
(** Raw neighbor table, stride 4: entry [4·site + mu]. Shared with the
    stencil kernels; do not mutate. *)

val bwd_table : t -> int array

val bwd : t -> int -> int -> int
val parity : t -> int -> int
(** 0 = even, 1 = odd. *)

val coords : t -> int -> int array
val site : t -> int array -> int
(** Coordinates are wrapped into range. *)

val eo_index : t -> int -> int
(** Index of a site within its parity block (checkerboard index). *)

val site_of_eo : t -> parity:int -> index:int -> int
val time_extent : t -> int
val spatial_volume : t -> int

val crosses_boundary_fwd : t -> int -> int -> bool
(** Does the forward hop from [site] in [mu] wrap around the lattice? *)

val iter_sites : t -> (int -> unit) -> unit
val iter_parity : t -> int -> (int -> unit) -> unit
