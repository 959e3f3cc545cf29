(** Spec validator for [Core.Workflow] specs and mixed-precision
    solver configurations. Each problem [Core.Workflow.validate_spec]
    reports is one [SPEC001] error; on a spec it accepts, the
    advisories: parity, domain-wall parameter ranges, thermalization,
    tolerance ordering against the double- and half-precision noise
    floors, block shape. Rule ids [SPEC001]–[SPEC007]. *)

val rules : (string * string) list

val half_noise_floor : float
(** Relative resolution of the int16 mantissa, 1/32767. *)

val double_noise_floor : float

val workflow_spec : Core.Workflow.spec -> Diagnostic.t list

val mixed_config : n:int -> Solver.Mixed.config -> Diagnostic.t list
(** [n] is the vector length the inner solve runs on (the
    half-checkerboard 5D field). *)
