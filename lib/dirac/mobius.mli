(** Möbius domain-wall fermion operator (Shamir when c5 = 0), with the
    red-black (4D even/odd) Schur-complement preconditioning used by the
    paper's production solver. 5D fields are s-outer: slice s is a
    contiguous 4D spinor field.

    Every hopping term is one [Wilson.stencil] launch over all L5
    slices (and all k right-hand sides of a batch): one link fetch per
    (site, μ, side), the −½ scale and the adjoint s-combination in the
    stencil's store. Outputs are bit-identical to the slice-by-slice
    chain (per-slice s-combination, 4D hop, scale).

    Each public entry checks its fields once: a field whose length is
    not the operator's (l5·n4·24 floats; [eo_field_length] for the
    checkerboarded entries), or a dst sharing storage with another
    operand (PLAN002's rule, probed through the storage so an
    [Array1.sub] view is caught), raises [Invalid_argument] naming
    the entry. The checkerboarded entries, [split_eo], [merge_eo],
    [prepare_rhs] and [reconstruct_even] each run as one
    [Linalg.Field.launch]: recorded as one launch, none of the kernels
    they run inside, and sanitized at the entry. The full operator
    and the 5th-dimension pieces are not recorded; they check
    aliasing alone ([Linalg.Field.check_aliasing]). *)

type params = {
  l5 : int;
  m5 : float;  (** domain-wall height, in (0,2) *)
  b5 : float;
  c5 : float;
  mass : float;  (** input quark mass *)
}

val shamir : l5:int -> m5:float -> mass:float -> params
val mobius : l5:int -> m5:float -> alpha:float -> mass:float -> params
(** b5 + c5 = alpha, b5 − c5 = 1. *)

val diag_a : params -> float
(** a = b5·(4 − M5) + 1. *)

val diag_b : params -> float
(** b = c5·(4 − M5) − 1. *)

val apply_m5 :
  params -> n4:int -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** The 4D-site-diagonal, s-coupled part M5d. [src] and [dst] may not
    share storage. *)

val apply_m5_dagger :
  params -> n4:int -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** M5d† — the chirality-to-shift association swaps. *)

val apply_m5inv :
  params -> n4:int -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** Closed-form inverse of M5d (bidiagonal-cyclic solve per chirality).
    [src] and [dst] may not share storage. *)

val apply_m5inv_dagger :
  params -> n4:int -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** Inverse of M5d†. [src] and [dst] may not share storage. *)

val apply_g5r5 :
  l5:int -> n4:int -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** Gamma5 × s-reflection — the domain-wall hermiticity conjugation.
    [src] and [dst] may not share storage. *)

(** Full (unpreconditioned) operator. *)
type t

val of_geometry :
  ?recon:Linalg.Su3_codec.codec ->
  params ->
  Lattice.Geometry.t ->
  Lattice.Gauge.t ->
  t
(** [recon] (default [Full18]) is the gauge codec of the underlying
    [Wilson] kernel — the packed link store every stencil sweep of the
    5D chain reconstructs from. *)

val field_length : t -> int
val create_field : t -> Linalg.Field.t
val apply : t -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
val apply_dagger : t -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** D† = M5d† + Hop†, each adjoint taken explicitly. It equals
    G5R5·D·G5R5 only for Shamir (c5 = 0). *)

val apply_normal : t -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** D†D — the CG operator. *)

(** Red-black preconditioned operator on odd-parity fields. *)
type eo

val of_geometry_eo :
  ?recon:Linalg.Su3_codec.codec ->
  params ->
  Lattice.Geometry.t ->
  Lattice.Gauge.t ->
  eo
(** [recon] as in {!of_geometry}: both checkerboard kernels share the
    codec, so the whole Schur chain (batched S†S included) runs on
    the packed store. *)

val eo_field_length : eo -> int
val create_eo_field : eo -> Linalg.Field.t

val hop_eo :
  eo -> to_parity:int -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit

val apply_schur : eo -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
(** S = M5d − Hop_oe·M5d⁻¹·Hop_eo. *)

val apply_schur_dagger : eo -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit
val apply_schur_normal : eo -> src:Linalg.Field.t -> dst:Linalg.Field.t -> unit

val apply_schur_normal_tail :
  eo ->
  src:Linalg.Field.t ->
  dst:Linalg.Field.t ->
  tail:Linalg.Fused.tail ->
  float
(** S†S with the output tail (optional xpay + dot,
    [Linalg.Fused.tail]) fused into the closing
    [dst <- M5d† tmp − hop-chain] sweep, per canonical
    [Field.reduce_block] while each block is hot. Returns the dot —
    bit-identical to running [apply_schur_normal] then
    [Field.dot_re q dst] (resp. [Fused.xpay_dot dst beta out q]). With
    [~tail:(Fused.tail ~dot:src ())] this returns src·(S†S src), the
    CG p·Ap, without the separate full-vector reduction sweep
    ([Solver.Cg]'s [apply_dot]). Neither the tail output nor [q] may
    share storage with [dst] ([Invalid_argument]). *)

(** {2 Batched multi-RHS chain} *)

val apply_schur_normal_multi :
  eo -> srcs:Linalg.Field.t array -> dsts:Linalg.Field.t array -> unit
(** Batched S†S — the operator a batched solve hands
    [Solver.Cg.solve_multi]. Each of its four hops is one stencil
    launch over L5·k columns, streaming the gauge links once for the
    whole batch, while the per-RHS stages (M5d/M5d⁻¹, closing
    subtractions) run the single-RHS loops — so each dst is
    bit-identical to [apply_schur_normal] on its src, for any batch
    width and pool geometry. The batch must be non-empty with matching
    widths; no dst may share storage with any other operand of the
    batch ([Invalid_argument]). *)

val split_eo :
  Lattice.Geometry.t -> l5:int -> Linalg.Field.t -> Linalg.Field.t * Linalg.Field.t
(** Full field (l5·volume·24 floats) → (even, odd) checkerboard fields. *)

val merge_eo :
  Lattice.Geometry.t ->
  l5:int ->
  even:Linalg.Field.t ->
  odd:Linalg.Field.t ->
  Linalg.Field.t

val prepare_rhs :
  eo -> rhs_even:Linalg.Field.t -> rhs_odd:Linalg.Field.t -> Linalg.Field.t
(** y'_o = y_o − Hop_oe·M5d⁻¹·y_e (the Schur system right-hand side). *)

val reconstruct_even :
  eo -> rhs_even:Linalg.Field.t -> x_odd:Linalg.Field.t -> Linalg.Field.t
(** x_e = M5d⁻¹·(y_e − Hop_eo·x_o). *)
