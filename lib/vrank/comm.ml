(* Virtual-rank message passing: N ranks executed sequentially with
   real buffers. This runs the same pack / post / complete / unpack
   pattern an MPI nonblocking halo exchange performs — message counts
   and byte volumes are recorded so the machine model can cost them —
   while staying deterministic and testable in one process.

   A rank's field covers the extended volume (local sites then ghost
   slots). The exchange fills every rank's ghost slots from its
   neighbors' boundary sites. The nonblocking protocol splits that
   into [post] (pack + send each face, leaving the messages in flight)
   and [complete] (deliver one ghost face on every rank), so overlapped
   stencils can interleave interior compute and per-face boundary
   compute with the communication schedule.

   The [transport] dimension (Machine.Transport) decides what "pack +
   send" means for the buffer in flight:

   - Staged packs a fresh buffer at post time: a write-after-post is
     flagged as a race (the pattern is wrong) but the delivered data
     is the post-time data.
   - Zero_copy leaves the payload aliasing the sender's field and only
     reads it at completion time: a write-after-post genuinely
     corrupts the delivered ghosts, witnessed by an order-sensitive
     checksum stamped at post and re-taken at delivery
     ([stats.corruptions]).
   - Double_buffered packs into one of two rotating per-face staging
     buffers: write-after-post is safe by construction (at most one
     buffer per face is ever in flight, and the next post rotates to
     the other), at one extra copy per message ([stats.extra_copies],
     priced by Machine.Perf_model).

   Orthogonally, [~compress:true] runs each staged payload through the
   half-precision block codec ([Field.Half], one float32 norm per
   site) at pack time and decodes at delivery — the compressed halo
   face traffic of the paper's fine-grained comms: wire bytes drop to
   2 per float plus 4 per site ([Linalg.Quantize.wire_bytes]) at the
   cost of codec passes over the face, which Machine.Perf_model prices
   and Autotune.Comm_tune surveys as a transport dimension. Zero_copy
   has no staging buffer to compress, so the combination is rejected. *)

module Domain = Lattice.Domain
module Field = Linalg.Field

type transport = Machine.Transport.t = Staged | Zero_copy | Double_buffered

type stats = {
  mutable full_exchanges : int;  (* all-8-face halo exchanges posted *)
  mutable partial_exchanges : int;  (* ?faces-subset exchanges posted *)
  mutable messages : int;  (* per-face sends *)
  mutable bytes : float;  (* total payload *)
  mutable send_buffer_races : int;  (* local writes seen between post and complete *)
  mutable corruptions : int;
      (* zero-copy deliveries whose payload changed in flight *)
  mutable extra_copies : int;  (* double-buffer rotation copies paid *)
  mutable compressed_messages : int;  (* messages carried half-precision *)
}

type t = {
  dom : Domain.t;
  dof : int;  (* floats per site *)
  transport : transport;
  compress : bool;  (* half-precision face payloads on the wire *)
  stats : stats;
  write_epoch : int array;  (* per rank: bumped when local sites change *)
  ghost_epoch : int array array;  (* rank × face: filler's epoch at completion *)
  db_pool : Field.t array array array;
      (* Double_buffered only: rank × face × 2 rotating staging
         buffers; [||] for the other transports *)
  db_next : int array array;  (* rank × face: which buffer the next post takes *)
}

(* A ghost region is fresh when it was filled from the current data of
   the rank that owns those sites. [write_epoch] counts local-site
   mutations per rank (scatter, or an explicit [mark_written]);
   [ghost_epoch.(r).(f)] remembers the filler's write epoch at the
   moment face [f] of rank [r] was last completed. Stale ghosts are
   exactly ghost_epoch < filler's write_epoch — the data race the halo
   checker hunts. *)

let strict = ref false

let create ?(transport = Staged) ?(compress = false) dom ~dof =
  if compress && transport = Zero_copy then
    invalid_arg
      "Comm.create: compress requires a staging buffer (Staged or \
       Double_buffered) — Zero_copy payloads alias the sender's field";
  let n = Domain.n_ranks dom in
  let db_pool =
    match transport with
    | Double_buffered ->
      Array.init n (fun r ->
          let rg = Domain.rank_geometry dom r in
          Array.init 8 (fun fid ->
              let n_sites =
                Array.length rg.Domain.faces.(fid).Domain.send_sites
              in
              Array.init 2 (fun _ -> Field.create (n_sites * dof))))
    | Staged | Zero_copy -> [||]
  in
  {
    dom;
    dof;
    transport;
    compress;
    stats =
      {
        full_exchanges = 0;
        partial_exchanges = 0;
        messages = 0;
        bytes = 0.;
        send_buffer_races = 0;
        corruptions = 0;
        extra_copies = 0;
        compressed_messages = 0;
      };
    write_epoch = Array.make n 0;
    ghost_epoch = Array.init n (fun _ -> Array.make 8 (-1));
    db_pool;
    db_next = Array.init n (fun _ -> Array.make 8 0);
  }

let stats t = t.stats

let transport t = t.transport

let compress t = t.compress

let n_ranks t = Domain.n_ranks t.dom

(* The entries check their arguments before anything is counted,
   written or recorded: the protocol indexes them unchecked. *)
let check_face entry fid =
  if fid < 0 || fid > 7 then
    invalid_arg (Printf.sprintf "Comm.%s: face id %d outside 0..7" entry fid)

let check_fields entry t (fields : Field.t array) =
  if Array.length fields <> n_ranks t then
    invalid_arg
      (Printf.sprintf "Comm.%s: %d fields for %d ranks" entry
         (Array.length fields) (n_ranks t));
  for r = 0 to n_ranks t - 1 do
    let len = (Domain.rank_geometry t.dom r).Domain.ext_volume * t.dof in
    if Field.length fields.(r) <> len then
      invalid_arg
        (Printf.sprintf "Comm.%s: rank %d field of %d floats, expected %d"
           entry r (Field.length fields.(r)) len)
  done

let bump t r = t.write_epoch.(r) <- t.write_epoch.(r) + 1

let mark_written t r =
  if r < 0 || r >= n_ranks t then
    invalid_arg
      (Printf.sprintf "Comm.mark_written: rank %d outside 0..%d" r (n_ranks t - 1));
  if !Util.Prof.on then Util.Prof.halo (Util.Prof.Halo.Write [ r ]);
  bump t r

let write_epoch t r = t.write_epoch.(r)

(* The rank whose boundary sites fill ghost face [face] of [rank] is
   that face's exchange partner (symmetric on the periodic grid). *)
let ghost_filler t ~rank ~face =
  let rg = Domain.rank_geometry t.dom rank in
  rg.Domain.faces.(face).Domain.neighbor

let ghost_fresh t ~rank ~face =
  let filler = ghost_filler t ~rank ~face in
  (* nothing was ever written: zero-initialized ghosts match zero data *)
  t.write_epoch.(filler) = 0
  || t.ghost_epoch.(rank).(face) >= t.write_epoch.(filler)

let stale_faces t rank =
  List.filter
    (fun face -> not (ghost_fresh t ~rank ~face))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* Rank-local extended field (local + ghosts), zero ghosts. *)
let create_fields t : Field.t array =
  Array.init (n_ranks t) (fun r ->
      let rg = Domain.rank_geometry t.dom r in
      Field.create (rg.Domain.ext_volume * t.dof))

(* Distribute a global field (volume * dof) into the local prefix of
   per-rank extended fields; ghosts left stale (a halo exchange must
   follow). *)
let scatter t (global : Field.t) (fields : Field.t array) =
  check_fields "scatter" t fields;
  Array.iteri
    (fun r (ext : Field.t) ->
      let local = Domain.scatter_field t.dom ~dof:t.dof global r in
      Field.blit local (Bigarray.Array1.sub ext 0 (Field.length local));
      bump t r)
    fields;
  if !Util.Prof.on then Util.Prof.halo Util.Prof.Halo.Scatter

(* ---- nonblocking per-face protocol ---- *)

(* One in-flight message. Under Staged/Double_buffered the payload was
   packed from the sender's boundary sites at post time, exactly like
   an MPI staging buffer; under Zero_copy the payload is empty and the
   bytes are read from the sender's live field at completion time.
   [post_epoch] is the sender's write epoch at the post — the epoch of
   the data meant to be carried, so a ghost face completed from this
   message is stamped with it (at completion time, not post time).
   [checksum] is only meaningful under Zero_copy: the order-sensitive
   checksum of the aliased face taken at post, compared against the
   same sum at delivery to witness in-flight corruption.

   A [Packed] payload is the staged face run through the half-precision
   block codec at pack time (one norm per site, [block = dof]); the
   wire carries 2 bytes per float plus the 4-byte norm per site, and
   delivery decodes straight into the ghost slots. *)
type payload = Raw of Field.t | Packed of Field.Half.h

type message = {
  msg_src : int;
  msg_dst : int;
  msg_face : int;  (* recv-side ghost face id on [msg_dst] *)
  payload : payload;
  post_epoch : int;
  checksum : float;
}

type handle = {
  owner : t;
  target : Field.t array;
  mutable in_flight : message list;
}

let all_face_ids = [| 0; 1; 2; 3; 4; 5; 6; 7 |]

let face_label fid =
  Printf.sprintf "%c%c" "xyzt".[fid / 2] (if fid mod 2 = 0 then '+' else '-')

(* Order-sensitive weighted checksum of a face's send sites in [field]:
   a change to any single value moves the sum, and the per-slot weights
   make value swaps between slots visible too. *)
let face_checksum (field : Field.t) (face : Domain.face) ~dof =
  let acc = ref 0. in
  Array.iteri
    (fun i s ->
      let sb = s * dof in
      for d = 0 to dof - 1 do
        let w =
          float_of_int ((((i * dof) + d + 1) * 2654435761) land 0xFFFFF) +. 1.
        in
        acc := !acc +. (w *. Bigarray.Array1.unsafe_get field (sb + d))
      done)
    face.Domain.send_sites;
  !acc

let pack_face (src : Field.t) (face : Domain.face) ~dof (payload : Field.t) =
  Array.iteri
    (fun i s ->
      let sb = s * dof in
      let pb = i * dof in
      for d = 0 to dof - 1 do
        Bigarray.Array1.unsafe_set payload (pb + d)
          (Bigarray.Array1.unsafe_get src (sb + d))
      done)
    face.Domain.send_sites

let empty_payload = Field.create 0

(* Wrap a staged face buffer for the wire: under [compress] run it
   through the half codec (one norm per site) so the in-flight copy is
   the 16-bit stream, exactly what a real compressed send would put on
   the fabric. *)
let seal t (p : Field.t) =
  if t.compress then begin
    let h = Field.Half.create ~block:t.dof (Field.length p) in
    Field.Half.encode p h;
    t.stats.compressed_messages <- t.stats.compressed_messages + 1;
    Packed h
  end
  else Raw p

let wire_bytes t ~n_sites =
  if t.compress then
    Linalg.Quantize.wire_bytes ~n:(n_sites * t.dof) ~block:t.dof
  else float_of_int (n_sites * t.dof * 8)

(* Pack (transport permitting) and "send" every listed face of every
   rank. Ghost slots are untouched until the matching [complete]. *)
let post ?faces t (fields : Field.t array) : handle =
  check_fields "post" t fields;
  let face_ids = match faces with None -> all_face_ids | Some f -> f in
  Array.iteri
    (fun i fid ->
      check_face "post" fid;
      for j = 0 to i - 1 do
        if face_ids.(j) = fid then
          invalid_arg (Printf.sprintf "Comm.post: face id %d listed twice" fid)
      done)
    face_ids;
  if !Util.Prof.on then
    Util.Prof.halo (Util.Prof.Halo.Post (Option.map Array.copy faces));
  if Array.length face_ids = 8 then
    t.stats.full_exchanges <- t.stats.full_exchanges + 1
  else t.stats.partial_exchanges <- t.stats.partial_exchanges + 1;
  let in_flight = ref [] in
  for r = 0 to n_ranks t - 1 do
    let rg = Domain.rank_geometry t.dom r in
    Array.iter
      (fun fid ->
        let face = rg.Domain.faces.(fid) in
        let n_sites = Array.length face.Domain.send_sites in
        let payload, checksum =
          match t.transport with
          | Staged ->
            let p = Field.create (n_sites * t.dof) in
            pack_face fields.(r) face ~dof:t.dof p;
            (seal t p, 0.)
          | Double_buffered ->
            (* rotate: the buffer not (possibly) in flight from the
               previous post of this face *)
            let slot = t.db_next.(r).(fid) in
            t.db_next.(r).(fid) <- 1 - slot;
            let p = t.db_pool.(r).(fid).(slot) in
            pack_face fields.(r) face ~dof:t.dof p;
            t.stats.extra_copies <- t.stats.extra_copies + 1;
            (seal t p, 0.)
          | Zero_copy ->
            (* no pack: the message aliases the sender's field; stamp
               the checksum of what should be delivered *)
            (Raw empty_payload, face_checksum fields.(r) face ~dof:t.dof)
        in
        (* data leaving face (mu, dir) lands in the neighbor's ghost
           region of the opposite face (mu, 1-dir) *)
        in_flight :=
          {
            msg_src = r;
            msg_dst = face.Domain.neighbor;
            msg_face = (2 * face.Domain.mu) + (1 - face.Domain.dir);
            payload;
            post_epoch = t.write_epoch.(r);
            checksum;
          }
          :: !in_flight;
        t.stats.messages <- t.stats.messages + 1;
        t.stats.bytes <- t.stats.bytes +. wire_bytes t ~n_sites)
      face_ids
  done;
  { owner = t; target = fields; in_flight = List.rev !in_flight }

let pending_faces h =
  List.sort_uniq compare (List.map (fun m -> m.msg_face) h.in_flight)

let finished h = h.in_flight = []

(* The send-side face id that produced a message landing in recv face
   [fid]: the opposite direction of the same dimension. *)
let send_face_of_recv fid = (2 * (fid / 2)) + (1 - (fid mod 2))

(* Deliver every in-flight message landing in ghost face [face]: unpack
   into the receivers' ghost slots and stamp [ghost_epoch] with the
   epoch of the data meant to be carried. The write-after-post race is
   transport-dependent: Staged flags it (the pattern is wrong even
   though the staging copy saved the data); Zero_copy additionally
   re-checksums the aliased face and counts a corruption when the
   delivered bytes really differ from the posted ones; Double_buffered
   is immune — the writer never touches a buffer in flight. *)
let complete h ~face =
  check_face "complete" face;
  let t = h.owner in
  let mine, rest = List.partition (fun m -> m.msg_face = face) h.in_flight in
  if mine = [] then
    invalid_arg
      (Printf.sprintf "Comm.complete: face %s is not in flight" (face_label face));
  if !Util.Prof.on then
    Util.Prof.halo (Util.Prof.Halo.Complete (Some [| face |]));
  h.in_flight <- rest;
  List.iter
    (fun m ->
      let raced = t.write_epoch.(m.msg_src) > m.post_epoch in
      (match t.transport with
      | Double_buffered -> ()
      | Staged | Zero_copy ->
        if raced then begin
          t.stats.send_buffer_races <- t.stats.send_buffer_races + 1;
          if !strict then
            invalid_arg
              (Printf.sprintf
                 "Comm.complete: rank %d wrote its local sites while face %s \
                  was in flight (send-buffer race%s)"
                 m.msg_src (face_label face)
                 (match t.transport with
                 | Zero_copy -> ": zero-copy ghosts deliver corrupt"
                 | _ -> ""))
        end);
      let rg = Domain.rank_geometry t.dom m.msg_dst in
      let ghost_base = rg.Domain.faces.(face).Domain.ghost_base in
      let db = ghost_base * t.dof in
      (match m.payload with
      | Raw p when t.transport <> Zero_copy ->
        let n = Field.length p in
        for i = 0 to n - 1 do
          Bigarray.Array1.unsafe_set h.target.(m.msg_dst) (db + i)
            (Bigarray.Array1.unsafe_get p i)
        done
      | Packed half ->
        (* decode the wire stream straight into the ghost slots *)
        let n = Field.Half.length half in
        let ghost = Bigarray.Array1.sub h.target.(m.msg_dst) db n in
        Field.Half.decode half ghost
      | Raw _ (* Zero_copy *) ->
        (* read the sender's field NOW — whatever it holds is what the
           wire delivers. The post-time checksum witnesses whether that
           is still the posted data. *)
        let src_rg = Domain.rank_geometry t.dom m.msg_src in
        let sface = src_rg.Domain.faces.(send_face_of_recv face) in
        let now = face_checksum h.target.(m.msg_src) sface ~dof:t.dof in
        if now <> m.checksum then t.stats.corruptions <- t.stats.corruptions + 1;
        Array.iteri
          (fun i s ->
            let sb = s * t.dof in
            let pb = db + (i * t.dof) in
            for d = 0 to t.dof - 1 do
              Bigarray.Array1.unsafe_set h.target.(m.msg_dst) (pb + d)
                (Bigarray.Array1.unsafe_get h.target.(m.msg_src) (sb + d))
            done)
          sface.Domain.send_sites);
      t.ghost_epoch.(m.msg_dst).(face) <- m.post_epoch)
    mine

let complete_all h = List.iter (fun face -> complete h ~face) (pending_faces h)

(* Blocking exchange of [faces] (default: all 8): post then complete
   everything before returning. *)
let halo_exchange ?faces t (fields : Field.t array) =
  complete_all (post ?faces t fields)

(* Bytes one full halo exchange moves for a single rank (both
   directions, all four dimensions), for the performance model. *)
let halo_bytes_per_rank t r =
  let rg = Domain.rank_geometry t.dom r in
  float_of_int (Domain.halo_sites rg * t.dof * 8)
