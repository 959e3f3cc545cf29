(** Plans recorded from live code: a [Util.Prof] recording turned into
    a {!Plan_ir.plan}, and the catalog of recordings the analyzer
    checks. Every catalog plan records the code it names on one
    fixed-seed lattice (a hot 4³×8 gauge field, Möbius L5 = 4, sources
    with every entry's magnitude in [\[1e-2, 1e1\]]), so a launch added
    to a solver shows up in its plan with no table to edit. *)

val plan : ?fusion:bool -> string -> Util.Prof.event list -> Plan_ir.plan
(** [plan name events]: vectors named [v0], [v1], … in order of first
    appearance and all declared — [Half block] when the recording
    quantizes them, [Double] otherwise; a vector read before it is
    written carries the magnitude interval it held at that read.
    Reductions become scalars [s1], [s2], …; marks and halo steps
    are dropped; [n] is the longest launch. [fusion] tags a
    model-priced plan. *)

val iteration : Util.Prof.event list -> Util.Prof.event list
(** The events between the first and second mark of right-hand side
    0, projected onto it when the recording is batched (slot 0 of each
    batched launch, and the single launches over its vectors).
    @raise Invalid_argument on fewer than two marks. *)

val fusion_tail :
  n:int -> mode:Linalg.Fused.mode -> geometry:(int * int) option -> Plan_ir.plan
(** The recording of [Autotune.Variants.run_fusion] for the launch of
    [mode] and [geometry] over [n] floats — what the tuner times.
    Priced unfused ([Unfused]) or fused ([Tail_fused]); [Fused] is the
    unpriced separate-dot tail. A launch the runner rejects ends the
    recording, recorded. *)

val wilson_hop : dims:int array -> chunk:int -> tail:bool -> Plan_ir.plan
(** [Dirac.Wilson.hop] (or [hop_tail] with an xpay and a dot) on a
    hot lattice of extents [dims], on a 4-lane pool at [chunk] sites. *)

val pooled_axpy : n:int -> chunk:int -> Plan_ir.plan
(** [Linalg.Field.axpy] over [n] floats on a 4-lane pool at [chunk]. *)

val catalog : (string * (unit -> Plan_ir.plan)) list
(** The 19 recorded plans [neutron_check --plan] names. *)

val find : string -> (unit -> Plan_ir.plan) option
