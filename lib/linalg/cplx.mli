(** Complex arithmetic for non-hot call sites (analysis, contractions). *)

type t = { re : float; im : float }

val make : float -> float -> t
val zero : t
val one : t
val i : t
val re : t -> float
val im : t -> float
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val conj : t -> t
val mul : t -> t -> t
val scale : float -> t -> t
val norm2 : t -> float
val abs : t -> float
val div : t -> t -> t
val inv : t -> t
val exp_i : float -> t
(** [exp_i theta] = e^{i theta}. *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
