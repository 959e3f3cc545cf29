(** Static checker for low-mode deflation executions ([Solver.Lanczos]
    / [Solver.Deflate] through the [?deflate] solver hooks): verifies
    a live space matches the live gauge configuration and that the
    basis still honors the orthonormality/residual bound it was built
    to. Rule ids [DEF001]–[DEF002]. *)

val rules : (string * string) list

val verify_space :
  config_hash:int ->
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  Solver.Deflate.t ->
  Diagnostic.t list
(** Live audit of a real space: the drift and eigen-residual are
    measured here against the given operator
    ([Solver.Deflate.ortho_drift] / [max_residual]) — a caller cannot
    report stale audit numbers. *)
