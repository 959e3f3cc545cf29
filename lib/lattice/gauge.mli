(** SU(3) gauge field storage, plaquette observables and staples.

    The link kernels run on caller-owned buffers: each product reads
    its left link where {!data} stores it ([Linalg.Su3.link_mul_into])
    and its right operand from a copy ([get_into]), and [staple_into]
    accumulates over a {!scratch} that a Monte Carlo sweep allocates
    once. [get], [staple] and [plaquette] are wrappers that allocate
    their result, with the same bits. *)

type t

val link_floats : int

val create : Geometry.t -> t
(** Zero field (not a valid gauge configuration — use [unit]/[random]). *)

val geom : t -> Geometry.t

val data : t -> Linalg.Field.t
(** Raw flat storage, layout [(site·4 + mu)·18 + k]; shared, do not
    resize. *)

val get : t -> int -> int -> Linalg.Su3.t
(** [get t site mu] copies link U_mu(site). *)

val get_into : t -> int -> int -> Linalg.Su3.t -> unit
(** [get_into t site mu m] copies link U_mu(site) into [m]. *)

val set : t -> int -> int -> Linalg.Su3.t -> unit
val copy : t -> t

val unit : Geometry.t -> t
(** Cold start: all links = identity. *)

val random : Geometry.t -> Util.Rng.t -> t
(** Hot start: Haar-spread random links. *)

val warm : Geometry.t -> Util.Rng.t -> eps:float -> t
(** Links near the identity with spread [eps]. *)

val reunitarize : t -> unit

val plaquette : t -> int -> int -> int -> Linalg.Su3.t
(** [plaquette t site mu nu] is the elementary plaquette matrix
    (U_mu(x) U_nu(x+mu)) (U_mu(x+nu)† U_nu(x)†). *)

val average_plaquette : t -> float
(** ⟨(1/3) Re Tr P⟩, normalized so the cold configuration gives 1.
    Each term is the real trace of [plaquette]'s product, formed
    without the product. *)

val wilson_action : t -> beta:float -> float

type scratch
(** Buffers for {!staple_into}, reusable across links. *)

val scratch : unit -> scratch

val staple_into : scratch -> t -> int -> int -> Linalg.Su3.t -> unit
(** [staple_into s t site mu a]: a ← the six-staple sum A with link
    action −(β/3)·Re Tr(U·A), summed over ν ≠ μ as A + (forward +
    backward). Allocates nothing. *)

val staple : t -> int -> int -> Linalg.Su3.t
(** {!staple_into} on fresh buffers. *)

val with_antiperiodic_time : t -> t
(** Copy with −1 phases on time links wrapping the lattice (fermion BC). *)

val max_unitarity_violation : t -> float
(** The largest ‖U U† − 1‖ (Frobenius) over the links. A link with a
    non-finite entry reports [infinity], so a "config on group" bound
    fails on it. *)
