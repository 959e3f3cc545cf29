(* Euclidean gamma matrices in the DeGrand-Rossi basis, the one used by
   MILC/QUDA. Every gamma_mu has exactly one nonzero entry per row, so
   each is stored as a spin permutation plus a complex phase:
   (gamma_mu psi)_s = phase_mu(s) * psi_(perm_mu(s)). *)

module Cplx = Linalg.Cplx

type action = { perm : int array; phase : Cplx.t array }

let i = Cplx.i
let mi = Cplx.neg Cplx.i
let one = Cplx.one
let mone = Cplx.neg Cplx.one

(* gamma_x, gamma_y, gamma_z, gamma_t  (mu = 0,1,2,3) *)
let gammas =
  [|
    { perm = [| 3; 2; 1; 0 |]; phase = [| i; i; mi; mi |] };
    { perm = [| 3; 2; 1; 0 |]; phase = [| mone; one; one; mone |] };
    { perm = [| 2; 3; 0; 1 |]; phase = [| i; mi; mi; i |] };
    { perm = [| 2; 3; 0; 1 |]; phase = [| one; one; one; one |] };
  |]

(* gamma_5 = gamma_x gamma_y gamma_z gamma_t: computed below and
   verified diagonal at module initialization. *)

let to_matrix a =
  Array.init 4 (fun row ->
      Array.init 4 (fun col -> if a.perm.(row) = col then a.phase.(row) else Cplx.zero))

let mat_mul a b =
  Array.init 4 (fun row ->
      Array.init 4 (fun col ->
          let acc = ref Cplx.zero in
          for k = 0 to 3 do
            acc := Cplx.add !acc (Cplx.mul a.(row).(k) b.(k).(col))
          done;
          !acc))

let gamma5_matrix =
  let m = to_matrix gammas.(0) in
  let m = mat_mul m (to_matrix gammas.(1)) in
  let m = mat_mul m (to_matrix gammas.(2)) in
  mat_mul m (to_matrix gammas.(3))

let gamma5_diag =
  Array.init 4 (fun s ->
      for s' = 0 to 3 do
        if s' <> s && not (Cplx.equal gamma5_matrix.(s).(s') Cplx.zero) then
          failwith "Gamma: gamma5 not diagonal in this basis"
      done;
      let d = gamma5_matrix.(s).(s) in
      if Cplx.equal d Cplx.one then 1.
      else if Cplx.equal d mone then -1.
      else failwith "Gamma: gamma5 diagonal not +-1")

let gamma5 =
  { perm = [| 0; 1; 2; 3 |]; phase = Array.map (fun d -> Cplx.make d 0.) gamma5_diag }

(* Spins with gamma5 = +1 are the "plus-chirality" components that the
   domain-wall projector P+ keeps. *)
let chirality_plus_spins =
  Array.to_list gamma5_diag
  |> List.mapi (fun s d -> (s, d))
  |> List.filter_map (fun (s, d) -> if d > 0. then Some s else None)
  |> Array.of_list

let chirality_minus_spins =
  Array.to_list gamma5_diag
  |> List.mapi (fun s d -> (s, d))
  |> List.filter_map (fun (s, d) -> if d < 0. then Some s else None)
  |> Array.of_list

(* ---- Actions on packed spinors ----
   A spinor at one site is 24 floats: spin-major, color inner,
   interleaved re/im: offset = (spin*3 + color)*2. These helpers act on
   a [Linalg.Field.t] at a given site base offset. *)

let floats_per_site = 24

(* dst_site <- gamma_mu src_site (distinct fields or distinct sites). *)
let apply_site a (src : Linalg.Field.t) src_base (dst : Linalg.Field.t) dst_base =
  for s = 0 to 3 do
    let sp = a.perm.(s) in
    let ph = a.phase.(s) in
    for c = 0 to 2 do
      let o = ((sp * 3) + c) * 2 in
      let re = Bigarray.Array1.unsafe_get src (src_base + o) in
      let im = Bigarray.Array1.unsafe_get src (src_base + o + 1) in
      let d = ((s * 3) + c) * 2 in
      Bigarray.Array1.unsafe_set dst (dst_base + d)
        ((ph.Cplx.re *. re) -. (ph.Cplx.im *. im));
      Bigarray.Array1.unsafe_set dst (dst_base + d + 1)
        ((ph.Cplx.re *. im) +. (ph.Cplx.im *. re))
    done
  done

(* Whole-field gamma5: dst <- gamma5 src (may alias). *)
let apply_gamma5 (src : Linalg.Field.t) (dst : Linalg.Field.t) =
  let n = Linalg.Field.length src / floats_per_site in
  if Linalg.Field.length dst <> Linalg.Field.length src then
    invalid_arg "Gamma.apply_gamma5: length mismatch";
  for site = 0 to n - 1 do
    let base = site * floats_per_site in
    for s = 0 to 3 do
      let d = gamma5_diag.(s) in
      if d < 0. then
        for c = 0 to 2 do
          let o = base + (((s * 3) + c) * 2) in
          Bigarray.Array1.unsafe_set dst o
            (-.Bigarray.Array1.unsafe_get src o);
          Bigarray.Array1.unsafe_set dst (o + 1)
            (-.Bigarray.Array1.unsafe_get src (o + 1))
        done
      else if dst != src then
        for c = 0 to 2 do
          let o = base + (((s * 3) + c) * 2) in
          Bigarray.Array1.unsafe_set dst o (Bigarray.Array1.unsafe_get src o);
          Bigarray.Array1.unsafe_set dst (o + 1)
            (Bigarray.Array1.unsafe_get src (o + 1))
        done
    done
  done

(* gamma_mu as a dense 4x4 complex matrix, for tests and contractions. *)
let matrix mu = to_matrix gammas.(mu)

let anticommutator_check () =
  (* {gamma_mu, gamma_nu} = 2 delta_munu — used by the test suite. *)
  let id4 =
    Array.init 4 (fun r -> Array.init 4 (fun c -> if r = c then Cplx.one else Cplx.zero))
  in
  let add m1 m2 = Array.init 4 (fun r -> Array.init 4 (fun c -> Cplx.add m1.(r).(c) m2.(r).(c))) in
  let ok = ref true in
  for mu = 0 to 3 do
    for nu = 0 to 3 do
      let anti =
        add
          (mat_mul (to_matrix gammas.(mu)) (to_matrix gammas.(nu)))
          (mat_mul (to_matrix gammas.(nu)) (to_matrix gammas.(mu)))
      in
      let expect s = if mu = nu then Cplx.scale 2. id4.(s).(s) else Cplx.zero in
      for s = 0 to 3 do
        for s' = 0 to 3 do
          let want = if s = s' then expect s else Cplx.zero in
          if not (Cplx.equal anti.(s).(s') want) then ok := false
        done
      done
    done
  done;
  !ok
