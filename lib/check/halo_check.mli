(** Halo-exchange race detector: replays a schedule's write/ghost
    epochs and in-flight message set over a [Lattice.Domain], without
    touching field data. A schedule is a recording ({!record}, the
    steps [Vrank.Comm] and [Vrank.Dd_wilson] report to [Util.Prof]), a
    mutation of one, or a hand-built op list. {!rules} lists the
    HALO ids: stale or in-flight ghost reads, unmatched or incomplete
    face subsets, re-posts, send-buffer races and zero-copy
    corruption, lost completions, wasted double-buffer copies and
    transport/policy mismatches. *)

type stencil = Util.Prof.Halo.stencil = Full | Interior | Boundary

type op = Util.Prof.Halo.op =
  | Scatter
  | Write of int list
  | Exchange of int array option
  | Post of int array option
  | Complete of int array option
  | Stencil of stencil
  | Stencil_faces of int array
      (** The recorder's halo step. The replay treats [Exchange] as
          the post and completes [Comm.halo_exchange] records. *)

val rules : (string * string) list

val verify_schedule :
  ?transport:Machine.Transport.t ->
  ?policy:Machine.Policy.t ->
  Lattice.Domain.t ->
  op list ->
  Diagnostic.t list
(** Replay [ops] under a halo [transport] (default [Staged]).
    Write-after-post fires HALO008 under [Staged], HALO011 (with the
    first racing site's global coordinate) under [Zero_copy], and
    nothing under [Double_buffered] — but a [Double_buffered] schedule
    where no write ever races a post gets the HALO012 warning (every
    rotation copy was wasted). When [policy] is given, a transport
    that models its transfer path dishonestly fires HALO013.

    The replay takes [Vrank.Comm]'s input contract, which no recording
    breaks: it raises [Invalid_argument "Halo_check.verify_schedule:
    op#i …"] on a face id outside 0..7 or listed twice in one op, a
    rank outside the domain, or a complete of a face not in flight. *)

val record : (unit -> 'a) -> 'a * op list
(** [f ()] and the halo steps it ran, in order. *)

type run = Blocking | Overlapped of Machine.Policy.granularity | Solve

val recorded : Machine.Transport.t -> run -> Vrank.Dd_wilson.t * op list
(** The recording of [Dd_wilson.hop_global] (blocking or overlapped)
    or [Dd_solve.solve_normal ~max_iter:1] under [transport], on a
    fixed-seed hot 4⁴ lattice over 2×2×1×1 ranks, and the operator it
    ran: its [dom] to replay on, its live [comm] to audit. *)

val audit : Vrank.Comm.t -> Diagnostic.t list
(** Flag every currently-stale ghost face of a live instrumented
    [Vrank.Comm] (its epoch counters are the evidence). *)
