(* Static checker for compressed gauge-link (reconstruct) executions
   (Linalg.Su3_codec / Lattice.Recon / Dirac.Wilson's packed stores).
   The audit measures a live gauge field and verifies the contract the
   reconstruction rests on:

   RECON001  a source link violates unitarity beyond the codec's
             tolerance: Recon12 rebuilds row 2 as s·conj(row0 × row1)
             and Recon8 re-derives six of nine entries from
             unitarity, so a non-unitary link decodes to a different
             matrix than was stored — the stencil silently applies the
             wrong gauge field (Full18's tolerance is infinite: it
             copies bits) *)

let rules =
  [ ("RECON001", "source links must be unitary within the codec tolerance") ]

(* Direct gauge audit for RECON001: measure the field's worst
   unitarity violation against the codec's documented tolerance. *)
let verify_gauge ~recon gauge =
  let v = Lattice.Gauge.max_unitarity_violation gauge in
  let tol = Linalg.Su3_codec.tolerance recon in
  if v > tol then
    [
      Diagnostic.error ~rule:"RECON001"
        ~loc:(Printf.sprintf "gauge_audit[%s]" (Linalg.Su3_codec.name recon))
        ~hint:
          "reunitarize the field (Lattice.Gauge.reunitarize) before \
           packing, or fall back to full18 for fields that must carry \
           non-unitary links"
        (Printf.sprintf
           "source link violates unitarity by %.3g where codec %s \
            tolerates %.3g: the reconstructed link is a different matrix \
            than was stored, so the stencil applies the wrong gauge field"
           v
           (Linalg.Su3_codec.name recon)
           tol);
    ]
  else []
