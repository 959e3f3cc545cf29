(** Halo-exchange race detector: replays a communication schedule's
    write/ghost epochs and in-flight message set over a
    [Lattice.Domain] and flags stencil reads of stale or still-in-flight
    ghost zones, send-buffer races between post and complete (staged:
    HALO008; zero-copy, where the write genuinely corrupts the
    delivered ghosts: HALO011), lost completions, completes without a
    post (HALO010, which [Vrank.Comm.complete] rejects), unmatched
    send/recv face pairs, incomplete [?faces] coverage, wasted double-buffer
    copies (HALO012) and transport/policy modeling mismatches
    (HALO013) — without touching field data. Rule ids
    [HALO001]–[HALO013]. *)

type stencil = Full | Interior | Boundary

type op =
  | Scatter  (** distribute a global field: every rank's sites rewritten *)
  | Write of int list  (** local-site writes on these ranks ([[]] = all) *)
  | Exchange of int array option
      (** blocking [Comm.halo_exchange ?faces] (post + complete fused) *)
  | Post of int array option  (** nonblocking [Comm.post ?faces] *)
  | Complete of int array option
      (** [Comm.complete] of these recv-side faces; [None] = all pending *)
  | Stencil of stencil  (** [Full]/[Boundary] read ghosts; [Interior] never *)
  | Stencil_faces of int array
      (** fine-grained boundary sub-stencil reading only these ghost
          faces — what [Vrank.Dd_wilson.hop_overlapped] runs between
          completions *)

val rules : (string * string) list

val face_name : int -> string
(** Face id 0–7 → ["x+"], ["x-"], …, ["t-"]. *)

val op_name : op -> string

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
    that models its transfer path dishonestly fires HALO013. *)

val audit : Vrank.Comm.t -> Diagnostic.t list
(** Flag every currently-stale ghost face of a live instrumented
    [Vrank.Comm] (its epoch counters are the evidence). *)
