(** SU(3) (and general 3×3 complex) matrices as flat length-18 float
    arrays, row-major, interleaved re/im — the same layout as gauge-link
    storage so links can be processed without conversion.

    The [_into] and [_in_place] kernels write caller-owned buffers and
    allocate nothing; [reunitarize] runs its kernel on a copy. Every
    product, [mul] included, sums entry (row, col) from 0. over
    k = 0, 1, 2 in order, so a kernel and the composition it replaces
    agree to the bit on finite input. *)

type t = float array

val idx : int -> int -> int
(** [idx row col] is the array offset of the real part of element
    (row, col). *)

val zero : unit -> t
val id : unit -> t
val copy : t -> t
val get : t -> int -> int -> Cplx.t
val set : t -> int -> int -> Cplx.t -> unit
val of_fun : (int -> int -> Cplx.t) -> t
val mul : t -> t -> t
val adj : t -> t

val link_mul_into : ?adj_a:bool -> ?adj_b:bool -> Field.t -> int -> t -> t -> unit
(** [link_mul_into ~adj_a ~adj_b links off b c]: c ← op(a)·op(b), with
    [a] the matrix stored at floats [off, off + 18) of [links] (a gauge
    field's storage: links are read where they live) and op the
    adjoint where flagged — bitwise [mul] of explicit [adj] operands.
    [c] must not be [b]. *)

val re_trace_mul : t -> t -> float
(** [re_trace (mul a b)] from the three diagonal entries alone. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val cscale : Cplx.t -> t -> t
val trace : t -> Cplx.t
val re_trace : t -> float
val frobenius_dist : t -> t -> float
val determinant : t -> Cplx.t

val mul_vec : t -> float array -> float array
(** [mul_vec m v] with [v] a 3-component complex vector as 6 floats. *)

val adj_mul_vec : t -> float array -> float array

val reunitarize : t -> t
(** Gram–Schmidt projection back onto SU(3): a copy run through
    {!reunitarize_in_place}. *)

val reunitarize_in_place : t -> unit
(** Normalise row 0, orthogonalise row 1 against it and normalise it,
    rebuild row 2 as conj(row 0 × row 1). Raises [Invalid_argument] on
    a zero row. *)

val is_unitary : ?eps:float -> t -> bool
val is_special_unitary : ?eps:float -> t -> bool

val random_near_identity : Util.Rng.t -> eps:float -> t
(** Random SU(3) element near the identity; [eps] sets the spread. *)

val random : Util.Rng.t -> t
(** Essentially Haar-spread random SU(3) element (for hot starts). *)

val embed_su2 : p:int -> q:int -> float * float * float * float -> t
(** Embed an SU(2) element (a0,a1,a2,a3), a0²+a·a=1, into the (p,q)
    subgroup of SU(3). *)

val extract_su2 : p:int -> q:int -> t -> float * float * float * float
(** Project the (p,q) 2×2 submatrix onto the quaternion basis
    (unnormalized) — the Cabibbo–Marinari staple reduction. *)

val extract_su2_mul : p:int -> q:int -> t -> t -> float * float * float * float
(** [extract_su2_mul ~p ~q u a] is [extract_su2 ~p ~q (mul u a)],
    forming only the four entries of the (p,q) block. Needs
    0 ≤ p < q ≤ 2. *)

val embed_su2_mul : p:int -> q:int -> float * float * float * float -> t -> unit
(** [embed_su2_mul ~p ~q a u]: u ← [mul (embed_su2 ~p ~q a) u] in
    place, bitwise for finite [u]. Rows p and q get the SU(2) left
    multiply; the third row becomes [0. +. u], which is what the
    embedded identity's product yields (a −0. entry turns +0.). Needs
    0 ≤ p < q ≤ 2. *)

val pp : Format.formatter -> t -> unit
