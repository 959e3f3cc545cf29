(** Static checker for compressed gauge-link (reconstruct) executions
    ([Linalg.Su3_codec] / [Lattice.Recon] packed stores and
    [Vrank.Comm] compressed halo payloads): verifies source links are
    unitary within the codec's tolerance and that compressed halos are
    repacked after gauge mutation. Rule ids [RECON001] and
    [RECON003]. *)

type plan = {
  kernel : string;  (** e.g. ["wilson_hop_recon"] *)
  recon : Linalg.Su3_codec.codec;  (** codec the execution streams *)
  max_violation : float;
      (** worst Frobenius unitarity violation over the source links
          ([Lattice.Gauge.max_unitarity_violation]) *)
  gauge_epoch : int;  (** write epoch of the live gauge field *)
  halo_epoch : int;
      (** gauge epoch at which the packed store / compressed halo was
          built *)
  halo_compressed : bool;
      (** whether ghost links arrive through a compressed payload;
          [false] skips RECON003 *)
}

val rules : (string * string) list

val plan :
  ?gauge_epoch:int ->
  ?halo_epoch:int ->
  ?halo_compressed:bool ->
  kernel:string ->
  recon:Linalg.Su3_codec.codec ->
  max_violation:float ->
  unit ->
  plan

val verify_gauge :
  recon:Linalg.Su3_codec.codec -> Lattice.Gauge.t -> Diagnostic.t list
(** Direct RECON001 audit: the field's worst unitarity violation
    against [Su3_codec.tolerance recon]. Empty for [Full18] (infinite
    tolerance — bit-copies). *)

val verify_plan : plan -> Diagnostic.t list
val verify_plans : plan list -> Diagnostic.t list
