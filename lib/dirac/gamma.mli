(** Euclidean gamma matrices (DeGrand–Rossi basis) as spin permutations
    with phases, plus packed-spinor helpers. A spinor site is 24 floats:
    spin-major, color inner, interleaved re/im. *)

module Cplx = Linalg.Cplx

type action = { perm : int array; phase : Cplx.t array }

val gammas : action array
(** gamma_mu for mu = 0..3 (x, y, z, t). *)

val gamma5 : action
val gamma5_diag : float array
(** Diagonal of gamma5 (±1 per spin) — diagonal in this basis. *)

val chirality_plus_spins : int array
(** Spins with gamma5 = +1 (kept by P+). *)

val chirality_minus_spins : int array

val floats_per_site : int
(** 24 = 4 spins × 3 colors × 2. *)

val apply_site :
  action -> Linalg.Field.t -> int -> Linalg.Field.t -> int -> unit
(** [apply_site g src src_base dst dst_base] applies the 4×4 spin matrix
    at one site (base offsets in floats). *)

val apply_gamma5 : Linalg.Field.t -> Linalg.Field.t -> unit
(** Whole-field gamma5; src and dst may alias. *)

val matrix : int -> Cplx.t array array
(** Dense 4×4 matrix of gamma_mu, for tests and contractions. *)

val to_matrix : action -> Cplx.t array array
val mat_mul : Cplx.t array array -> Cplx.t array array -> Cplx.t array array
val gamma5_matrix : Cplx.t array array

val anticommutator_check : unit -> bool
(** Verifies {gamma_mu, gamma_nu} = 2 delta_munu. *)
