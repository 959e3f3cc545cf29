(** Domain decomposition over a 4D process grid: rank-local subgrids,
    ghost (halo) regions, and the neighbor tables that point boundary
    hops into them. The index machinery used by [Vrank] halo exchange. *)

type face = {
  mu : int;
  dir : int;  (** 0 = forward face, 1 = backward face *)
  send_sites : int array;
  ghost_base : int;
  neighbor : int;
}

type rank_geometry = {
  rank : int;
  coords : int array;
  local_dims : int array;
  local_volume : int;
  ext_volume : int;
  fwd : int array;
  bwd : int array;
  local_to_global : int array;
  global_offset : int array;
  faces : face array;
  interior_sites : int array;
      (** sites whose stencil never touches a ghost slot *)
  boundary_sites : int array;
}

type t

val create : Geometry.t -> int array -> t
(** [create global grid] decomposes; each grid extent must divide the
    corresponding lattice extent. Grid extent 1 self-exchanges. *)

val global : t -> Geometry.t
val grid : t -> int array
val n_ranks : t -> int
val rank_geometry : t -> int -> rank_geometry
val owner : t -> int -> int
(** Owning rank of a global site. *)

val fwd : rank_geometry -> int -> int -> int
(** [fwd rg s mu] — extended index (local or ghost) of the forward hop. *)

val bwd : rank_geometry -> int -> int -> int

val halo_sites : rank_geometry -> int
(** Sites moved per full halo exchange on this rank. *)

val scatter_field : t -> dof:int -> Linalg.Field.t -> int -> Linalg.Field.t
(** Restrict a global field ([dof] floats per site) to a rank. Raises
    [Invalid_argument] unless the field is volume·dof floats. *)

val gather_field : t -> dof:int -> Linalg.Field.t array -> Linalg.Field.t
(** Reassemble rank-local arrays into a global field. Raises
    [Invalid_argument] unless each array is its rank's
    local_volume·dof floats. *)

val gather_gauge : t -> Gauge.t -> int -> Linalg.Field.t
(** Extended-volume (local + ghost) gauge copy for one rank, flat
    [ext_site × mu × 18] layout. Raises [Invalid_argument] unless the
    gauge field's dims are the domain's global dims. *)
