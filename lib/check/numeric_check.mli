(** Numeric sanitizer: NaN/Inf detection through the instrumented
    [Linalg.Field] kernels, and static range analysis of the half
    fixed-point block codec (blocks whose dynamic range exceeds the
    int16 mantissa, or whose float32 norm over/underflows, are
    destroyed by [quantize]). Rule ids [NUM001]–[NUM006]. *)

val rules : (string * string) list

val check_finite : what:string -> Linalg.Field.t -> Diagnostic.t list
(** Scan a vector; NaN → NUM001, Inf → NUM002 (capped reporting). *)

val half_blocks : block:int -> Linalg.Field.t -> Diagnostic.t list
(** Static codec range analysis: per block of [block] floats, flag
    non-finite/overflowing norms (NUM004), norms underflowing float32
    (NUM005), and blocks where ≥25% (warning) or ≥50% (error) of the
    nonzero values quantize to zero (NUM003). *)

val sanitized : what:string -> (unit -> 'a) -> 'a * Diagnostic.t list
(** Run with [Field.Sanitize] recording; every trap becomes a
    diagnostic naming the offending kernel. *)

val probe_mixed_solve :
  apply:(Linalg.Field.t -> Linalg.Field.t -> unit) ->
  b:Linalg.Field.t ->
  unit ->
  Diagnostic.t list
(** Instrumented double-half CG run at [Solver.Mixed.default_config]:
    diagnostics for every kernel trap
    (or NUM006 if the solver rejects its inputs). *)
