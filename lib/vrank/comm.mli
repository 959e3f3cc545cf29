(** Virtual-rank message passing: N ranks executed sequentially with
    real buffers, running the pack/post/complete/unpack pattern of an
    MPI nonblocking halo exchange with message and byte accounting.

    [scatter], [mark_written], [post] and [complete] raise
    [Invalid_argument] on a bad argument before anything is counted,
    written or recorded, and report the step that ran to [Util.Prof]
    ([halo_exchange] as its post and completes). *)

type transport = Machine.Transport.t = Staged | Zero_copy | Double_buffered
(** How the send side treats face data between post and complete:
    [Staged] packs a fresh buffer at post (write-after-post flagged but
    the delivered data is the post-time data); [Zero_copy] aliases the
    sender's field so a write-after-post genuinely corrupts the
    delivered ghosts (witnessed by a post-time checksum); and
    [Double_buffered] packs into two rotating per-face buffers so
    write-after-post is safe by construction, at one counted (and
    [Machine.Perf_model]-priced) extra copy per message. *)

type stats = {
  mutable full_exchanges : int;
      (** all-8-face exchanges posted — the unit [halo_bytes_per_rank]
          estimates *)
  mutable partial_exchanges : int;  (** [?faces]-subset exchanges posted *)
  mutable messages : int;
  mutable bytes : float;
  mutable send_buffer_races : int;
      (** completions that observed a local write after the post
          ([Staged]/[Zero_copy]; [Double_buffered] is immune) *)
  mutable corruptions : int;
      (** [Zero_copy] deliveries whose aliased payload changed in
          flight — the post-time checksum no longer matches what the
          wire delivered *)
  mutable extra_copies : int;
      (** [Double_buffered] rotation copies paid (one per message
          posted) *)
  mutable compressed_messages : int;
      (** messages whose payload went on the wire half-precision
          ([~compress:true]) *)
}

type t

val create :
  ?transport:transport -> ?compress:bool -> Lattice.Domain.t -> dof:int -> t
(** [dof] = floats per site; [transport] defaults to [Staged].
    [compress] (default false) runs every staged face payload through
    the half-precision block codec ([Linalg.Field.Half], one float32
    norm per site) at pack time and decodes at delivery, so the wire
    carries [Linalg.Quantize.wire_bytes] instead of 8 bytes per float
    — the compressed halo traffic [Machine.Perf_model] prices (codec
    passes traded against wire bytes) and [Autotune.Comm_tune]
    surveys. Raises [Invalid_argument] with [Zero_copy]: there is no
    staging buffer to compress. *)

val stats : t -> stats
val transport : t -> transport

val compress : t -> bool
(** Whether face payloads ride the wire half-precision. *)


val n_ranks : t -> int

val create_fields : t -> Linalg.Field.t array
(** One extended-volume (local + ghosts) field per rank, zeroed. *)

val scatter : t -> Linalg.Field.t -> Linalg.Field.t array -> unit
(** Global field → per-rank local portions, restricted through
    [Lattice.Domain.scatter_field] (ghosts left stale). Raises
    [Invalid_argument] unless the global field is volume·dof floats
    and there is one ext_volume·dof field per rank. *)

(** {2 Nonblocking per-face protocol}

    [post] records each listed face of every rank as in flight —
    packing it into a staging buffer ([Staged]), into one of two
    rotating buffers ([Double_buffered]), or leaving the payload
    aliasing the sender's field ([Zero_copy]); ghost slots are
    untouched. [complete ~face] delivers every in-flight message
    landing in that ghost face and stamps [ghost_epoch] {e at
    completion time} with the epoch of the data meant to be carried.
    Overlapped stencils interleave interior/boundary compute between
    the two. *)

type handle

val post : ?faces:int array -> t -> Linalg.Field.t array -> handle
(** Pack (transport permitting) + send the listed faces (default all 8)
    on every rank. Counts one full (all 8 faces) or partial exchange.
    Raises [Invalid_argument], counting nothing, unless the array holds
    one ext_volume·dof field per rank and every listed face id lies in
    0..7 and appears once. *)

val complete : handle -> face:int -> unit
(** Deliver ghost face [face] (recv-side id) on every rank. Raises
    [Invalid_argument] on a face id outside 0..7, or a face not in
    flight (never posted, or completed twice). A sender writing its
    local sites between post and complete is counted as a send-buffer
    race under [Staged] and [Zero_copy] (and raises in strict mode);
    under [Zero_copy] the delivered ghosts additionally come from the
    sender's {e live} field and a real change is counted in
    [stats.corruptions]. [Double_buffered] delivers the post-time data
    silently — the race cannot happen. *)

val complete_all : handle -> unit
(** Complete every pending face, in ascending face id. *)

val pending_faces : handle -> int list
(** Recv-side face ids still in flight, sorted. *)

val finished : handle -> bool

val halo_exchange : ?faces:int array -> t -> Linalg.Field.t array -> unit
(** Blocking convenience: [post] then [complete_all]. *)

val face_label : int -> string
(** Face id 0–7 → ["x+"], ["x-"], …, ["t-"]. *)

val send_face_of_recv : int -> int
(** The send-side face id whose message lands in this recv face: the
    opposite direction of the same dimension. *)

(** {2 Ghost-freshness (epoch) tracking}

    [scatter] and [mark_written] bump a per-rank write epoch;
    completing a face stamps it with its filler's epoch as of the post.
    A ghost face whose stamp lags the filler's epoch is stale — reading
    it is the halo data race [Check.Halo_check] detects. *)

val strict : bool ref
(** When set, ghost consumers ([Dd_wilson] stencils) raise
    [Invalid_argument] on a stale ghost read instead of computing with
    outdated data, and [complete] raises on a send-buffer race. Off by
    default. *)

val mark_written : t -> int -> unit
(** Declare that rank's local sites changed (its neighbors' ghosts of
    it are now stale until the next exchange; any in-flight message it
    posted is now racing — and, under [Zero_copy], corrupt). Raises
    [Invalid_argument] on a rank outside the domain. *)

val write_epoch : t -> int -> int

val ghost_fresh : t -> rank:int -> face:int -> bool
val stale_faces : t -> int -> int list
(** Face ids (0–7) of this rank whose ghosts lag their filler. *)

val halo_bytes_per_rank : t -> int -> float
