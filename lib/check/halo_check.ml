(* Halo-exchange race detector. The paper's overlapped stencil (pack /
   post / interior / per-face complete + boundary) is only correct when
   every ghost zone a stencil reads was refreshed after the last write
   to the sites it mirrors — and, for the nonblocking protocol, only
   after the face actually completed. This pass replays a schedule —
   write/ghost epochs and the in-flight message set over a
   Lattice.Domain, without touching field data. A schedule is a
   Util.Prof recording of Vrank.Comm and Dd_wilson, a mutation of one,
   or a hand-built op list; it can also audit a live Vrank.Comm for
   the freshness property via its epoch counters. *)

module D = Lattice.Domain

type stencil = Util.Prof.Halo.stencil = Full | Interior | Boundary

type op = Util.Prof.Halo.op =
  | Scatter
  | Write of int list
  | Exchange of int array option
  | Post of int array option
  | Complete of int array option
  | Stencil of stencil
  | Stencil_faces of int array

let rules =
  [
    ("HALO001", "stencil reads a stale ghost zone");
    ("HALO002", "unmatched send/recv: a face exchanged without its opposite");
    ("HALO003", "ghost face not covered by the ?faces subset");
    ("HALO005", "face re-posted while its previous post is in flight");
    ("HALO006", "exchange before any write: refreshes zero-initialized data");
    ("HALO007", "stencil reads a ghost face still in flight (posted, not completed)");
    ("HALO008", "local write between post and complete: the in-flight send buffer races");
    ("HALO009", "posted face never completed");
    ("HALO011", "write under the zero-copy transport corrupts an in-flight payload");
    ("HALO012", "double-buffered transport pays copies no write ever needed");
    ("HALO013", "communication policy's transfer path mismatches the halo transport");
  ]

let face_name fid =
  if fid >= 0 && fid <= 7 then Vrank.Comm.face_label fid else string_of_int fid

let faces_name fs =
  String.concat "," (Array.to_list (Array.map face_name fs))

let op_name = function
  | Scatter -> "scatter"
  | Write _ -> "write"
  | Exchange None -> "exchange(all)"
  | Exchange (Some fs) -> Printf.sprintf "exchange(%s)" (faces_name fs)
  | Post None -> "post(all)"
  | Post (Some fs) -> Printf.sprintf "post(%s)" (faces_name fs)
  | Complete None -> "complete(pending)"
  | Complete (Some fs) -> Printf.sprintf "complete(%s)" (faces_name fs)
  | Stencil s ->
    Printf.sprintf "stencil(%s)"
      (match s with Full -> "full" | Interior -> "interior" | Boundary -> "boundary")
  | Stencil_faces fs -> Printf.sprintf "stencil(faces %s)" (faces_name fs)

let all_faces = [| 0; 1; 2; 3; 4; 5; 6; 7 |]

(* The other face of the same dimension: what is sent through face f
   lands in the neighbour's ghost face [opposite f]. *)
let opposite = Vrank.Comm.send_face_of_recv

(* One in-flight message in the replay: who posted it and at which
   write epoch (the epoch of the data the staging buffer carries). *)
type in_flight = { src : int; epoch : int }

let verify_schedule ?(transport = Machine.Transport.Staged) ?policy dom
    (ops : op list) =
  let n = D.n_ranks dom in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  (* HALO013: the transport must model the policy's transfer path
     honestly — staging under a zero-copy/GDR wire hides the real
     race, zero-copy under the staged-MPI wire invents one. *)
  (match policy with
  | Some pol when not (Machine.Policy.transport_ok pol transport) ->
    add
      (Diagnostic.error ~rule:"HALO013" ~loc:"schedule"
         (Printf.sprintf "policy %s modeled with the %s transport: %s"
            (Machine.Policy.name pol)
            (Machine.Transport.name transport)
            (match transport with
            | Machine.Transport.Staged ->
              "the zero-copy/GDR wire races for real; the staged model hides it"
            | Machine.Transport.Zero_copy | Machine.Transport.Double_buffered ->
              "the staged-MPI wire always copies; this model invents a race \
               the copy prevents"))
         ~hint:
           "pair zero-copy/GDR transfers with the zero-copy or \
            double-buffered transport, and staged-mpi with staged or \
            double-buffered")
  | _ -> ());
  let write_epoch = Array.make n 0 in
  let ghost_epoch = Array.init n (fun _ -> Array.make 8 (-1)) in
  let pending : in_flight option array array =
    Array.init n (fun _ -> Array.make 8 None)
  in
  let last_subset = ref None in  (* faces of the most recent delivery *)
  let fresh rank face =
    let filler = (D.rank_geometry dom rank).D.faces.(face).D.neighbor in
    write_epoch.(filler) = 0 || ghost_epoch.(rank).(face) >= write_epoch.(filler)
  in
  (* Comm's input contract. Comm refuses these at the call, so no
     recording holds one: a schedule that breaks it is malformed, not
     racy. *)
  let malformed loc what =
    invalid_arg (Printf.sprintf "Halo_check.verify_schedule: %s: %s" loc what)
  in
  let check_input loc = function
    | Write ranks ->
      List.iter
        (fun r ->
          if r < 0 || r >= n then
            malformed loc (Printf.sprintf "rank %d outside 0..%d" r (n - 1)))
        ranks
    | Exchange (Some fs) | Post (Some fs) | Complete (Some fs) | Stencil_faces fs ->
      Array.iteri
        (fun j f ->
          if f < 0 || f > 7 then
            malformed loc (Printf.sprintf "face id %d outside 0..7" f);
          if Array.mem f (Array.sub fs 0 j) then
            malformed loc (Printf.sprintf "face id %d listed twice" f))
        fs
    | Scatter | Exchange None | Post None | Complete None | Stencil _ -> ()
  in
  (* An exchange or post subset that sends a face without its opposite
     leaves one direction's ghosts stale; per-face completions and
     sub-stencils are singletons on purpose. *)
  let subset loc fs =
    Array.iter
      (fun f ->
        if not (Array.exists (( = ) (opposite f)) fs) then
          add
            (Diagnostic.warning ~rule:"HALO002" ~loc
               (Printf.sprintf "face %s exchanged without its opposite %s"
                  (face_name f) (face_name (opposite f)))
               ~hint:
                 "one direction's ghosts stay stale; exchange both faces \
                  of the dimension"))
      fs;
    fs
  in
  (* Sender-side coordinate of the first racing site: the message
     landing in recv face [recv_fid] was packed from the opposite face
     of the sender — name its first send site in global coordinates so
     the diagnostic points at lattice data, not just a face id. *)
  let describe_site src recv_fid =
    let send_fid = opposite recv_fid in
    let rg = D.rank_geometry dom src in
    let g = rg.D.local_to_global.(rg.D.faces.(send_fid).D.send_sites.(0)) in
    let c = Lattice.Geometry.coords (D.global dom) g in
    Printf.sprintf "; first racing site: rank %d face %s site %d = (%d,%d,%d,%d)"
      src (face_name send_fid) g c.(0) c.(1) c.(2) c.(3)
  in
  (* A write on [r] races every message r posted that is still in
     flight. What that means depends on the transport: staged ships
     the old data but the pattern is still wrong (HALO008); zero-copy
     ships the new data — the delivered ghosts are corrupt for real
     (HALO011); double-buffered is immune (counted, so HALO012 can
     tell a useful buffer from a wasted one). *)
  let protected_races = ref 0 in
  let check_send_buffer_race loc ranks =
    let count = ref 0 and first = ref None in
    for rank = 0 to n - 1 do
      for fid = 0 to 7 do
        match pending.(rank).(fid) with
        | Some m when List.mem m.src ranks ->
          incr count;
          if !first = None then first := Some (m.src, fid)
        | _ -> ()
      done
    done;
    if !count > 0 then begin
      let site =
        match !first with None -> "" | Some (src, fid) -> describe_site src fid
      in
      match transport with
      | Machine.Transport.Double_buffered ->
        protected_races := !protected_races + !count
      | Machine.Transport.Staged ->
        add
          (Diagnostic.error ~rule:"HALO008" ~loc
             (Printf.sprintf
                "%d in-flight message(s) posted by the written rank(s): the \
                 send buffer races with the write%s"
                !count site)
             ~hint:
               "complete the posted faces before writing local sites, or \
                double-buffer the sends")
      | Machine.Transport.Zero_copy ->
        add
          (Diagnostic.error ~rule:"HALO011" ~loc
             (Printf.sprintf
                "%d in-flight zero-copy payload(s) alias the written rank(s)' \
                 field: the delivered ghosts are corrupt%s"
                !count site)
             ~hint:
               "complete the posted faces before writing, or switch to the \
                double-buffered transport")
    end
  in
  let bump_writes loc ranks =
    check_send_buffer_race loc ranks;
    List.iter (fun r -> write_epoch.(r) <- write_epoch.(r) + 1) ranks
  in
  let all_ranks = List.init n Fun.id in
  (* Ghost-face reads shared by Full/Boundary stencils (all 8 faces)
     and fine-grained sub-stencils (a subset). In-flight faces get the
     crisper HALO007; otherwise the stale logic of HALO001/HALO003. *)
  let check_ghost_reads loc fids =
    Array.iter
      (fun fid ->
        let in_flight = ref 0 and stale = ref 0 in
        for r = 0 to n - 1 do
          if pending.(r).(fid) <> None then incr in_flight
          else if not (fresh r fid) then incr stale
        done;
        if !in_flight > 0 then
          add
            (Diagnostic.error ~rule:"HALO007"
               ~loc:(Printf.sprintf "%s face %s" loc (face_name fid))
               (Printf.sprintf
                  "ghost face read on %d/%d ranks while still in flight \
                   (posted, not completed)"
                  !in_flight n)
               ~hint:"complete the face before its boundary sub-stencil runs")
        else if !stale > 0 then
          match !last_subset with
          | Some fs when not (List.mem fid fs) ->
            add
              (Diagnostic.error ~rule:"HALO003"
                 ~loc:(Printf.sprintf "%s face %s" loc (face_name fid))
                 (Printf.sprintf
                    "stale ghost read on %d/%d ranks: face missing from the \
                     ?faces subset"
                    !stale n)
                 ~hint:"add the face to the subset or exchange all faces")
          | _ ->
            add
              (Diagnostic.error ~rule:"HALO001"
                 ~loc:(Printf.sprintf "%s face %s" loc (face_name fid))
                 (Printf.sprintf
                    "stale ghost read on %d/%d ranks: sites were written \
                     after the last exchange"
                    !stale n)
                 ~hint:"insert a halo exchange between the write and the read"))
      fids
  in
  (* Deliver ghost face [fid] on every rank where it is in flight,
     stamping ghost_epoch with the posting epoch — completion time,
     posted data. A post reaches every rank, so a face is in flight on
     all ranks or on none. *)
  let deliver loc fid =
    if Array.for_all (fun row -> row.(fid) = None) pending then
      malformed loc (Printf.sprintf "face %s is not in flight" (face_name fid));
    Array.iteri
      (fun r row ->
        Option.iter (fun m -> ghost_epoch.(r).(fid) <- m.epoch) row.(fid);
        row.(fid) <- None)
      pending
  in
  let posted_msgs = ref 0 in
  let post_faces fids =
    Array.iter
      (fun fid ->
        for r = 0 to n - 1 do
          let face = (D.rank_geometry dom r).D.faces.(fid) in
          let nb = face.D.neighbor in
          let recv = (2 * face.D.mu) + (1 - face.D.dir) in
          pending.(nb).(recv) <- Some { src = r; epoch = write_epoch.(r) };
          incr posted_msgs
        done)
      fids
  in
  let rec step loc = function
    | Scatter | Write [] -> bump_writes loc all_ranks
    | Write ranks -> bump_writes loc ranks
    | Exchange faces ->
      (* post, then complete the recv faces it fills: the sequence
         Comm.halo_exchange records *)
      step loc (Post faces);
      let fids = Option.value faces ~default:all_faces in
      step loc (Complete (Some (Array.map opposite fids)))
    | Post faces ->
      let fids =
        match faces with None -> all_faces | Some fs -> subset loc fs
      in
      if Array.for_all (( = ) 0) write_epoch then
        add
          (Diagnostic.info ~rule:"HALO006" ~loc
             "post before any scatter/write: ghosts will refresh zero data");
      Array.iter
        (fun fid ->
          if Array.exists (fun row -> row.(opposite fid) <> None) pending then
            add
              (Diagnostic.warning ~rule:"HALO005" ~loc
                 (Printf.sprintf
                    "face %s re-posted while the previous post is in flight"
                    (face_name fid))))
        fids;
      post_faces fids;
      (* a new round began: completions accumulate from scratch *)
      last_subset := None
    | Complete faces ->
      let fids =
        match faces with
        | Some fs -> Array.to_list fs
        | None ->
          (* every face any rank still has in flight *)
          List.filter
            (fun fid -> Array.exists (fun row -> row.(fid) <> None) pending)
            (Array.to_list all_faces)
      in
      List.iter (deliver loc) fids;
      if fids <> [] then
        last_subset :=
          (match !last_subset with
          | Some prev when faces <> None ->
            (* accumulate per-face completions of one post *)
            Some (List.sort_uniq compare (prev @ fids))
          | _ -> Some fids)
    | Stencil Interior -> ()  (* interior sites never touch ghosts *)
    | Stencil (Full | Boundary) -> check_ghost_reads loc all_faces
    | Stencil_faces fs -> check_ghost_reads loc fs
  in
  List.iteri
    (fun i op ->
      let loc = Printf.sprintf "op#%d %s" i (op_name op) in
      check_input loc op;
      step loc op)
    ops;
  (* a message still in flight at the end of the schedule was lost:
     its receiver's ghosts never got the posted data *)
  Array.iter
    (fun fid ->
      let lost = ref 0 in
      for r = 0 to n - 1 do
        if pending.(r).(fid) <> None then incr lost
      done;
      if !lost > 0 then
        add
          (Diagnostic.error ~rule:"HALO009"
             ~loc:(Printf.sprintf "end of schedule, face %s" (face_name fid))
             (Printf.sprintf "posted face never completed on %d/%d ranks" !lost n)
             ~hint:"complete every posted face (or don't post it)"))
    all_faces;
  (* HALO012: the double buffer earns its extra copy only if some
     write actually raced a post somewhere in the schedule. A schedule
     that never writes between post and complete paid every rotation
     copy for nothing — the staged transport is strictly cheaper. *)
  if
    transport = Machine.Transport.Double_buffered
    && !posted_msgs > 0
    && !protected_races = 0
  then
    add
      (Diagnostic.warning ~rule:"HALO012" ~loc:"end of schedule"
         (Printf.sprintf
            "double-buffered transport paid %d rotation cop%s but no write \
             ever raced a post"
            !posted_msgs
            (if !posted_msgs = 1 then "y" else "ies"))
         ~hint:
           "this schedule is already write-after-post free: the staged \
            transport delivers the same data without the extra copy");
  Diagnostic.sort (List.rev !ds)

(* ---- recordings of live code ---- *)

let record f =
  let x, events = Util.Prof.record f in
  (x, List.filter_map (function Util.Prof.Halo op -> Some op | _ -> None) events)

type run = Blocking | Overlapped of Machine.Policy.granularity | Solve

(* One fixed-seed problem: a hot 4^4 lattice over 2x2x1x1 ranks, so
   x and y cross ranks and z and t wrap onto the rank itself. *)
let recorded transport run =
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  let dom = D.create geom [| 2; 2; 1; 1 |] in
  let rng = Util.Rng.create 20_180_920 in
  let dd = Vrank.Dd_wilson.create ~transport dom (Lattice.Gauge.random geom rng) in
  let src = Linalg.Field.create (Lattice.Geometry.volume geom * 24) in
  Linalg.Field.gaussian rng src;
  let (), ops =
    record (fun () ->
        match run with
        | Blocking -> ignore (Vrank.Dd_wilson.hop_global dd src)
        | Overlapped granularity ->
          ignore (Vrank.Dd_wilson.hop_global ~overlapped:true ~granularity dd src)
        | Solve ->
          let solver = Vrank.Dd_solve.create dd ~mass:0.1 in
          ignore (Vrank.Dd_solve.solve_normal ~max_iter:1 solver ~b_global:src))
  in
  (dd, ops)

(* Runtime audit of a live Comm: flag every currently-stale ghost face
   (same freshness rule, read from the epoch counters the instrumented
   Comm maintains), plus any zero-copy corruption its checksum witness
   already caught. *)
let audit (c : Vrank.Comm.t) =
  let n = Vrank.Comm.n_ranks c in
  let ds = ref [] in
  let corruptions = (Vrank.Comm.stats c).Vrank.Comm.corruptions in
  if corruptions > 0 then
    ds :=
      Diagnostic.error ~rule:"HALO011" ~loc:"comm stats"
        (Printf.sprintf
           "%d zero-copy payload(s) changed between post and delivery: the \
            received ghosts are corrupt"
           corruptions)
        ~hint:"complete in-flight faces before writing local sites"
      :: !ds;
  for fid = 0 to 7 do
    let stale = ref 0 in
    for r = 0 to n - 1 do
      if not (Vrank.Comm.ghost_fresh c ~rank:r ~face:fid) then incr stale
    done;
    if !stale > 0 then
      ds :=
        Diagnostic.error ~rule:"HALO001"
          ~loc:(Printf.sprintf "comm face %s" (face_name fid))
          (Printf.sprintf "ghosts stale on %d/%d ranks" !stale n)
          ~hint:"a halo exchange is required before the next ghost read"
        :: !ds
  done;
  Diagnostic.sort (List.rev !ds)
