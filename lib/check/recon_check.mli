(** Static checker for compressed gauge-link (reconstruct) executions
    ([Linalg.Su3_codec] / [Lattice.Recon] packed stores): verifies
    source links are unitary within the codec's tolerance. Rule id
    [RECON001]. *)

val rules : (string * string) list

val verify_gauge :
  recon:Linalg.Su3_codec.codec -> Lattice.Gauge.t -> Diagnostic.t list
(** Direct RECON001 audit: the field's worst unitarity violation
    against [Su3_codec.tolerance recon]. Empty for [Full18] (infinite
    tolerance — bit-copies). *)
