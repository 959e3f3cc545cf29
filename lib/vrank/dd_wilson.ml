(* Domain-decomposed Wilson operator over virtual ranks: the stencil
   communication pattern of the paper executed functionally. The
   overlapped application follows the canonical recipe from Sec. IV:

     1. pack the halo and post every face (Comm.post)
     2. compute the interior stencil while messages are in flight
     3. complete faces and run boundary compute — per face as each
        halo lands (fine-grained), or all at once after every face
        completed (coarse-grained), per Machine.Policy.granularity

   Ranks run sequentially, so "overlap" here is exercised structurally
   (interior computed from pre-exchange data, boundary sub-stencils
   gated on the exact faces they read — verified identical to the
   blocking path); the timing benefit is what Machine.Perf_model costs
   out. *)

module Domain = Lattice.Domain
module Field = Linalg.Field
module Wilson = Dirac.Wilson
module Policy = Machine.Policy

type t = {
  dom : Domain.t;
  comm : Comm.t;
  kernels : Wilson.t array;  (* one per rank *)
  gauges : Field.t array;  (* extended-volume gauge copies *)
  face_needs : (int * int) array array;
      (* per rank: (boundary site, bitmask of ghost faces its stencil
         reads) — the gating data for fine-grained completion *)
}

(* Which ghost faces does the stencil at a boundary site read? A hop
   landing at ext index >= local_volume lands in exactly one face's
   ghost region; collect the face ids as a bitmask. *)
let site_face_needs (rg : Domain.rank_geometry) =
  let ghost_len = rg.Domain.ext_volume - rg.Domain.local_volume in
  let face_of_ghost = Array.make ghost_len (-1) in
  Array.iteri
    (fun fid (face : Domain.face) ->
      Array.iteri
        (fun i _ ->
          face_of_ghost.(face.Domain.ghost_base + i - rg.Domain.local_volume) <-
            fid)
        face.Domain.send_sites)
    rg.Domain.faces;
  let need s =
    let mask = ref 0 in
    for mu = 0 to 3 do
      let f = Domain.fwd rg s mu and b = Domain.bwd rg s mu in
      if f >= rg.Domain.local_volume then
        mask := !mask lor (1 lsl face_of_ghost.(f - rg.Domain.local_volume));
      if b >= rg.Domain.local_volume then
        mask := !mask lor (1 lsl face_of_ghost.(b - rg.Domain.local_volume))
    done;
    !mask
  in
  Array.map (fun s -> (s, need s)) rg.Domain.boundary_sites

let create ?transport dom gauge =
  let comm = Comm.create ?transport dom ~dof:Wilson.floats_per_site in
  let gauges =
    Array.init (Domain.n_ranks dom) (fun r -> Domain.gather_gauge dom gauge r)
  in
  let kernels =
    Array.init (Domain.n_ranks dom) (fun r ->
        Wilson.of_domain_rank (Domain.rank_geometry dom r) gauges.(r))
  in
  let face_needs =
    Array.init (Domain.n_ranks dom) (fun r ->
        site_face_needs (Domain.rank_geometry dom r))
  in
  { dom; comm; kernels; gauges; face_needs }

let comm t = t.comm

(* Strict-mode gate (Comm.strict), the runtime arm of the halo race
   detector: a boundary sub-stencil about to read the ghost faces in
   [mask] refuses to run on a stale one, naming rank and face. The
   blocking [hop] needs none: its exchange completes every face it
   posted, with nothing written in between. *)
let assert_faces_fresh t ~what ~rank ~mask =
  if !Comm.strict then
    for f = 0 to 7 do
      if
        mask land (1 lsl f) <> 0
        && not (Comm.ghost_fresh t.comm ~rank ~face:f)
      then
        invalid_arg
          (Printf.sprintf "%s: rank %d boundary stencil reads stale ghost face %s"
             what rank (Comm.face_label f))
    done

(* Simple application: exchange halos, then run the full stencil on
   every rank. [fields] are extended source fields; [dsts] receive
   local_volume sites each. *)
let hop t ~(fields : Field.t array) ~(dsts : Field.t array) =
  Comm.halo_exchange t.comm fields;
  Array.iteri
    (fun r kernel -> Wilson.hop kernel ~src:fields.(r) ~dst:dsts.(r))
    t.kernels;
  if !Util.Prof.on then Util.Prof.halo Util.Prof.Halo.(Stencil Full)

let default_order = [| 0; 1; 2; 3; 4; 5; 6; 7 |]

let check_order order =
  if Array.length order <> 8 then
    invalid_arg "Dd_wilson.hop_overlapped: order must list all 8 faces";
  let seen = Array.make 8 false in
  Array.iter
    (fun f ->
      if f < 0 || f > 7 || seen.(f) then
        invalid_arg "Dd_wilson.hop_overlapped: order must permute 0..7";
      seen.(f) <- true)
    order

(* A boundary site runs in the fine-grained step that completes the
   last of the ghost faces [mask] it reads. *)
let runs_after ~face ~now mask = mask land (1 lsl face) <> 0 && mask land now = mask

(* Record the ghost faces a fine-grained step's sub-stencils read on
   all ranks, recomputed here so that an unrecorded step allocates
   nothing more. *)
let record_step t ~face ~now =
  let read =
    Array.fold_left
      (Array.fold_left (fun m (_, mask) ->
           if runs_after ~face ~now mask then m lor mask else m))
      0 t.face_needs
  in
  if read <> 0 then
    let faces = List.filter (fun f -> read land (1 lsl f) <> 0) (List.init 8 Fun.id) in
    Util.Prof.halo (Util.Prof.Halo.Stencil_faces (Array.of_list faces))

(* Overlapped application: post every face, run the interior stencil on
   pre-exchange data while the messages are in flight, then complete
   faces in [order]. Fine-grained runs each boundary site's sub-stencil
   as soon as the last ghost face it reads has landed; coarse-grained
   completes every face first and runs the whole boundary in one
   sweep. The freshness assertion runs at the point each sub-stencil
   reads its ghosts — not after a fused exchange, where it could never
   fire. Each stencil phase is recorded after it ran. *)
let hop_overlapped ?(granularity = Policy.Fine) ?(order = default_order) t
    ~(fields : Field.t array) ~(dsts : Field.t array) =
  check_order order;
  let h = Comm.post t.comm fields in
  (* interior first, from pre-exchange data: no ghost slot is read *)
  Array.iteri
    (fun r kernel ->
      let rg = Domain.rank_geometry t.dom r in
      Wilson.hop_sites kernel ~sites:rg.Domain.interior_sites ~src:fields.(r)
        ~dst:dsts.(r) ())
    t.kernels;
  if !Util.Prof.on then Util.Prof.halo Util.Prof.Halo.(Stencil Interior);
  match granularity with
  | Policy.Coarse ->
    Array.iter (fun face -> Comm.complete h ~face) order;
    Array.iteri
      (fun r kernel ->
        let rg = Domain.rank_geometry t.dom r in
        assert_faces_fresh t ~what:"Dd_wilson.hop_overlapped(coarse)" ~rank:r
          ~mask:(Array.fold_left (fun m (_, mask) -> m lor mask) 0 t.face_needs.(r));
        Wilson.hop_sites kernel ~sites:rg.Domain.boundary_sites ~src:fields.(r)
          ~dst:dsts.(r) ())
      t.kernels;
    if !Util.Prof.on then Util.Prof.halo Util.Prof.Halo.(Stencil Boundary)
  | Policy.Fine ->
    let completed = ref 0 in
    Array.iter
      (fun face ->
        Comm.complete h ~face;
        completed := !completed lor (1 lsl face);
        let now = !completed in
        Array.iteri
          (fun r kernel ->
            (* boundary sites whose last missing face just landed *)
            let ready = ref [] and group_mask = ref 0 in
            Array.iter
              (fun (s, mask) ->
                if runs_after ~face ~now mask then begin
                  ready := s :: !ready;
                  group_mask := !group_mask lor mask
                end)
              t.face_needs.(r);
            if !ready <> [] then begin
              assert_faces_fresh t ~what:"Dd_wilson.hop_overlapped(fine)"
                ~rank:r ~mask:!group_mask;
              Wilson.hop_sites kernel
                ~sites:(Array.of_list (List.rev !ready))
                ~src:fields.(r) ~dst:dsts.(r) ()
            end)
          t.kernels;
        if !Util.Prof.on then record_step t ~face ~now)
      order

(* Global-field convenience interface (tests, small workloads):
   dst = H src computed across all ranks. *)
let hop_global ?(overlapped = false) ?granularity ?order t (src : Field.t) :
    Field.t =
  let fields = Comm.create_fields t.comm in
  Comm.scatter t.comm src fields;
  let dsts =
    Array.init (Domain.n_ranks t.dom) (fun r ->
        let rg = Domain.rank_geometry t.dom r in
        Field.create (rg.Domain.local_volume * Wilson.floats_per_site))
  in
  if overlapped then hop_overlapped ?granularity ?order t ~fields ~dsts
  else hop t ~fields ~dsts;
  Domain.gather_field t.dom ~dof:Wilson.floats_per_site dsts

let apply_global t ~mass (src : Field.t) : Field.t =
  let h = hop_global t src in
  let out = Field.copy src in
  Field.scale (4. +. mass) out;
  Field.axpy (-0.5) h out;
  out
