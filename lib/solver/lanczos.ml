(* Thick-restart Lanczos for the lowest eigenpairs of a hermitian
   positive operator — the deflation-space builder. The complex
   operator on C^(n/2) is symmetric on R^n with the same spectrum
   (each eigenvalue twice), so the whole iteration runs on the real
   kernels: every inner product is [Field.dot_re]/[Field.norm] (the
   canonical blocked reductions) and every basis combination is
   [Multi_blas.block_axpy], which makes the computed basis and Ritz
   values bit-identical for any pool geometry — the same determinism
   contract every kernel since PR 4 has carried.

   Shape of one cycle: grow the orthonormal basis to [basis_size]
   vectors with full (two-pass classical Gram-Schmidt)
   reorthogonalization, each new direction seeded by A·(previous
   vector); project A onto the basis (the operator images are kept, so
   the projection costs dots, not applies); diagonalize the small
   matrix with a deterministic cyclic Jacobi sweep; keep the lowest
   [rank] Ritz pairs. On restart the kept Ritz vectors *and their
   operator images* become the new leading basis — the thick restart —
   so each later cycle spends only (basis_size − rank) applies. *)

module Field = Linalg.Field

type stats = {
  applies : int;
  restarts : int;
  residuals : float array;  (* per kept pair, |A v − λ v| *)
  converged : bool;
}

(* ---- dense symmetric eigensolver (cyclic Jacobi) ----
   Deterministic: fixed sweep order, fixed rotation formulas, fixed
   ascending sort with index tie-break. Plenty for the m ≤ a few dozen
   projected matrices Lanczos produces. *)
let sym_eig (a : float array array) =
  let m = Array.length a in
  let h = Array.map Array.copy a in
  let v =
    Array.init m (fun i -> Array.init m (fun j -> if i = j then 1. else 0.))
  in
  let off_norm2 () =
    let s = ref 0. in
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        if i <> j then s := !s +. (h.(i).(j) *. h.(i).(j))
      done
    done;
    !s
  in
  let frob2 =
    let s = ref 0. in
    Array.iter (Array.iter (fun x -> s := !s +. (x *. x))) h;
    Float.max !s 1e-300
  in
  let sweeps = ref 0 in
  while off_norm2 () > 1e-30 *. frob2 && !sweeps < 64 do
    incr sweeps;
    for p = 0 to m - 2 do
      for q = p + 1 to m - 1 do
        let apq = h.(p).(q) in
        if apq <> 0. then begin
          let theta = (h.(q).(q) -. h.(p).(p)) /. (2. *. apq) in
          let t =
            (if theta >= 0. then 1. else -1.)
            /. (abs_float theta +. sqrt ((theta *. theta) +. 1.))
          in
          let c = 1. /. sqrt ((t *. t) +. 1.) in
          let s = t *. c in
          for i = 0 to m - 1 do
            let hip = h.(i).(p) and hiq = h.(i).(q) in
            h.(i).(p) <- (c *. hip) -. (s *. hiq);
            h.(i).(q) <- (s *. hip) +. (c *. hiq)
          done;
          for i = 0 to m - 1 do
            let hpi = h.(p).(i) and hqi = h.(q).(i) in
            h.(p).(i) <- (c *. hpi) -. (s *. hqi);
            h.(q).(i) <- (s *. hpi) +. (c *. hqi)
          done;
          for i = 0 to m - 1 do
            let vip = v.(i).(p) and viq = v.(i).(q) in
            v.(i).(p) <- (c *. vip) -. (s *. viq);
            v.(i).(q) <- (s *. vip) +. (c *. viq)
          done
        end
      done
    done
  done;
  let order = Array.init m (fun i -> i) in
  Array.sort
    (fun i j ->
      let c = compare h.(i).(i) h.(j).(j) in
      if c <> 0 then c else compare i j)
    order;
  let vals = Array.map (fun i -> h.(i).(i)) order in
  (* eigenvector k is column order.(k) of the accumulated rotations *)
  let vecs =
    Array.map (fun k -> Array.init m (fun i -> v.(i).(k))) order
  in
  (vals, vecs)

(* Two-pass classical Gram-Schmidt against basis[0..sz-1], then
   normalize; false when the candidate collapses into the span. *)
let orthonormalize basis sz (w : Field.t) =
  for _pass = 0 to 1 do
    for j = 0 to sz - 1 do
      let c = Field.dot_re basis.(j) w in
      Field.axpy (-.c) basis.(j) w
    done
  done;
  let nrm = Field.norm w in
  if nrm > 1e-140 then begin
    Field.scale (1. /. nrm) w;
    true
  end
  else false

let lowest ?(tol = 1e-8) ?(max_restarts = 60) ?basis_size ~rank ~apply ~n ~rng () =
  if rank < 1 then invalid_arg "Lanczos.lowest: rank >= 1";
  let m = match basis_size with Some m -> m | None -> max (2 * rank) (rank + 6) in
  if m <= rank then invalid_arg "Lanczos.lowest: basis_size must exceed rank";
  if m > n then invalid_arg "Lanczos.lowest: basis_size exceeds the dimension";
  let vs = Array.init m (fun _ -> Field.create n) in
  let avs = Array.init m (fun _ -> Field.create n) in
  let ritz = Array.init rank (fun _ -> Field.create n) in
  let aritz = Array.init rank (fun _ -> Field.create n) in
  let tmp = Field.create n in
  let residuals = Array.make rank infinity in
  let values = Array.make rank 0. in
  let applies = ref 0 in
  let restarts = ref 0 in
  let converged = ref false in
  let sz = ref 0 in
  (* first expansion direction: fresh noise *)
  Field.gaussian rng vs.(0);
  let place_candidate slot =
    (* candidate already sits in vs.(slot); replace with fresh noise if
       it collapsed into the span (breakdown) *)
    let attempts = ref 0 in
    while (not (orthonormalize vs !sz vs.(slot))) && !attempts < 8 do
      incr attempts;
      Field.gaussian rng vs.(slot)
    done
  in
  let expand () =
    while !sz < m do
      let slot = !sz in
      place_candidate slot;
      apply vs.(slot) avs.(slot);
      incr applies;
      sz := slot + 1;
      (* the Lanczos direction for the next slot: A·(this vector); the
         full reorthogonalization above reduces it to the three-term
         recurrence in exact arithmetic and repairs it in floats *)
      if !sz < m then Field.blit avs.(slot) vs.(!sz)
    done
  in
  let finished = ref false in
  while not !finished do
    expand ();
    (* Rayleigh–Ritz on the full basis: H = Vᵀ A V from the stored
       operator images (dots only), symmetrized deterministically *)
    let h = Array.make_matrix m m 0. in
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        h.(i).(j) <- Field.dot_re vs.(i) avs.(j)
      done
    done;
    for i = 0 to m - 1 do
      for j = i + 1 to m - 1 do
        let s = 0.5 *. (h.(i).(j) +. h.(j).(i)) in
        h.(i).(j) <- s;
        h.(j).(i) <- s
      done
    done;
    let vals, y = sym_eig h in
    (* lowest-[rank] Ritz vectors and their operator images, one
       batched multi-blas launch each *)
    let coeff = Array.init rank (fun i -> y.(i)) in
    Array.iter (fun v -> Field.fill v 0.) ritz;
    Array.iter (fun v -> Field.fill v 0.) aritz;
    Linalg.Multi_blas.block_axpy coeff vs ritz;
    Linalg.Multi_blas.block_axpy coeff avs aritz;
    let scale = Float.max (abs_float vals.(m - 1)) 1e-30 in
    for i = 0 to rank - 1 do
      values.(i) <- vals.(i);
      Field.blit aritz.(i) tmp;
      Field.axpy (-.vals.(i)) ritz.(i) tmp;
      residuals.(i) <- Field.norm tmp
    done;
    converged :=
      Array.for_all (fun r -> r <= tol *. scale) residuals;
    if !converged || !restarts >= max_restarts then finished := true
    else begin
      (* thick restart: kept Ritz pairs lead the next basis *)
      incr restarts;
      for i = 0 to rank - 1 do
        Field.blit ritz.(i) vs.(i);
        Field.blit aritz.(i) avs.(i)
      done;
      sz := rank;
      (* next expansion direction: the worst unconverged pair's
         residual (A v − λ v), the classical restart vector *)
      let j = ref 0 in
      for i = rank - 1 downto 0 do
        if residuals.(i) > tol *. scale then j := i
      done;
      Field.blit aritz.(!j) vs.(rank);
      Field.axpy (-.values.(!j)) ritz.(!j) vs.(rank)
    end
  done;
  ( Array.sub values 0 rank,
    ritz,
    {
      applies = !applies;
      restarts = !restarts;
      residuals = Array.copy residuals;
      converged = !converged;
    } )
