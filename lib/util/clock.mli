(** Monotonic clock. *)

val now_s : unit -> float
(** Seconds on the monotonic clock from an arbitrary origin; only
    differences are meaningful. Never decreases. *)

