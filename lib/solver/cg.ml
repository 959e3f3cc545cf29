(* Conjugate gradient on the normal equations — the paper's solver
   family. The operator is a closure so the same CG drives the plain
   Wilson normal operator, the full Mobius normal operator and the
   red-black preconditioned Schur normal operator.

   One recurrence serves both entries: [solve_multi] advances k
   right-hand sides in lockstep with per-RHS convergence masking, and
   [solve] is its batch of one. A right-hand side leaves the batch when
   it converges, exhausts [max_iter] or meets a non-positive p·Ap
   breakdown, and its stats count the iterations it ran. *)

module Field = Linalg.Field

type stats = {
  iterations : int;
  converged : bool;
  relative_residual : float;  (* |r| / |b| from the recurrence *)
  true_relative_residual : float option;  (* recomputed |b - Ax| / |b| *)
  flops : float;
  seconds : float;
  reliable_updates : int;
}

(* Flops of the BLAS-1 work per CG iteration on vectors of n floats.
   Unfused: dot_re p·Ap (2n) + axpy x (2n) + axpy r (2n) + norm2 r
   (2n) + xpay p (2n) = 10n. Fused: dot_re (2n) + cg_update
   (3 ops × 2n) + xpay_dot (2n update + 2n monitor dot) = 12n — the
   fused path spends two extra flops per float on the free p·r
   orthogonality monitor while moving fewer bytes. *)
let blas1_flops ?(fused = false) n =
  float_of_int ((if fused then 12 else 10) * n)

let pick vs idx = Array.map (fun i -> vs.(i)) idx
let keep f idx = Array.of_seq (Seq.filter f (Array.to_seq idx))

(* The operator step of a plain batched [apply]: A p, then each p·Ap
   as its own canonical blocked reduction. *)
let dots apply ps aps =
  apply ps aps;
  Array.map2 (fun p ap -> Field.dot_re p ap) ps aps

(* The one CG recurrence, k right-hand sides in lockstep. [apply] is
   the batched operator of the entry and closing residuals; [step ps
   aps] applies it to the active search directions and returns each
   p·Ap. Every RHS runs its own scalar recurrence and its own slot of
   the vector kernels — [Linalg.Multi_blas] slot i is the [Fused]
   kernel by construction — so its trajectory does not depend on its
   batch-mates. [name] heads the entry errors. *)
let run ~name ~x0s ~deflate ~fused ~apply ~step ~(bs : Field.t array)
    ~tol ~max_iter ~flops_per_apply =
  let k = Array.length bs in
  let n = Field.length bs.(0) in
  let t_start = Util.Clock.now_s () in
  let xs =
    match x0s with
    | Some x0s -> Array.map Field.copy x0s
    | None -> Array.init k (fun _ -> Field.create n)
  in
  let rs = Array.init k (fun _ -> Field.create n) in
  let aps = Array.init k (fun _ -> Field.create n) in
  let applies = Array.make k 0 in
  (* r = b - A x over the whole batch, one batched apply *)
  let residuals () =
    apply xs aps;
    Array.iteri
      (fun i (b : Field.t) ->
        applies.(i) <- applies.(i) + 1;
        Field.sub b aps.(i) rs.(i))
      bs
  in
  (match x0s with
  | None -> Array.iteri (fun i b -> Field.blit b rs.(i)) bs
  | Some _ -> residuals ());
  (* the low-mode guess rides the entry: one k×r coefficient tile and
     one block_axpy launch fold the deflated correction of each
     residual into its guess, then the residuals are recomputed
     exactly. Row i is bit-identical to [Deflate.augment]. *)
  Option.iter
    (fun d ->
      Deflate.augment_multi d ~rs xs;
      residuals ())
    deflate;
  let ps = Array.map Field.copy rs in
  let b2s = Array.map (fun b -> Field.norm2 b) bs in
  (* without a guess or deflation r = b, so |r|² is |b|² *)
  let r2s =
    match (x0s, deflate) with
    | None, None -> Array.copy b2s
    | _ -> Array.map (fun r -> Field.norm2 r) rs
  in
  (* a zero b returns before its residual is read *)
  Array.iteri
    (fun i b2 ->
      if not (Float.is_finite b2) then invalid_arg (name ^ ": non-finite b");
      if b2 <> 0. && not (Float.is_finite r2s.(i)) then
        invalid_arg (name ^ ": non-finite initial residual"))
    b2s;
  let targets = Array.map (fun b2 -> tol *. tol *. b2) b2s in
  let iters = Array.make k 0 in
  let alphas = Array.make k 0. in
  let out = Array.make k None in
  (* false on a NaN |r|², which stops the RHS unconverged *)
  let running i = r2s.(i) > targets.(i) && iters.(i) < max_iter in
  let live i = Option.is_none out.(i) in
  let finish i ~converged ~rel ~true_rel ~flops =
    out.(i) <-
      Some
        {
          iterations = iters.(i);
          converged;
          relative_residual = rel;
          true_relative_residual = Some true_rel;
          flops;
          seconds = Util.Clock.now_s () -. t_start;
          reliable_updates = 0;
        }
  in
  let retire i =
    (* the closing true-residual pass, one RHS; b − Ax lands in the
       retiring residual, which the solve no longer reads *)
    apply [| xs.(i) |] [| aps.(i) |];
    applies.(i) <- applies.(i) + 1;
    Field.sub bs.(i) aps.(i) rs.(i);
    finish i ~converged:(r2s.(i) <= targets.(i))
      ~rel:(sqrt (r2s.(i) /. b2s.(i)))
      ~true_rel:(sqrt (Field.norm2 rs.(i) /. b2s.(i)))
      ~flops:
        ((float_of_int applies.(i) *. flops_per_apply)
        +. (float_of_int iters.(i) *. blas1_flops ~fused n))
  in
  Array.iteri
    (fun i b2 ->
      if b2 = 0. then begin
        (* the zero-source early return *)
        Field.fill xs.(i) 0.;
        finish i ~converged:true ~rel:0. ~true_rel:0. ~flops:0.
      end
      else if not (running i) then retire i)
    b2s;
  (* the tail over the RHS [a] that survived their p·Ap *)
  let advance a =
    let r2_news =
      if fused then
        Linalg.Multi_blas.cg_update (pick alphas a) (pick ps a) (pick aps a)
          (pick xs a) (pick rs a)
      else
        Array.map
          (fun i ->
            Field.axpy alphas.(i) ps.(i) xs.(i);
            Field.axpy (-.alphas.(i)) aps.(i) rs.(i);
            Field.norm2 rs.(i))
          a
    in
    let betas = Array.mapi (fun j i -> r2_news.(j) /. r2s.(i)) a in
    Array.iteri (fun j i -> r2s.(i) <- r2_news.(j)) a;
    (* p = r + beta p. The fused kernel also returns p·r — in exact
       arithmetic |r|², a free orthogonality monitor riding the sweep;
       the recurrence does not consume it. *)
    if fused then
      ignore
        (Linalg.Multi_blas.xpay_dot (pick rs a) betas (pick ps a) (pick rs a)
          : float array)
    else Array.iteri (fun j i -> Field.xpay rs.(i) betas.(j) ps.(i)) a;
    Array.iteri (fun j i -> Util.Prof.mark ~rhs:i r2_news.(j)) a;
    (* masking: a converged or exhausted RHS leaves the batch *)
    Array.iter (fun i -> if not (running i) then retire i) a
  in
  let act = ref (keep live (Array.init k Fun.id)) in
  while Array.length !act > 0 do
    let paps = step (pick ps !act) (pick aps !act) in
    Array.iteri
      (fun j i ->
        iters.(i) <- iters.(i) + 1;
        applies.(i) <- applies.(i) + 1;
        alphas.(i) <- r2s.(i) /. paps.(j);
        (* A is not positive along p: a breakdown retires the RHS
           unconverged, with the iterations it ran *)
        if paps.(j) <= 0. then retire i)
      !act;
    (* the batch kernels reject an empty batch: skip the tail when
       every active RHS broke down *)
    let a = keep live !act in
    if Array.length a > 0 then advance a;
    act := keep live a
  done;
  (xs, Array.map Option.get out)

let solve ?(x0 : Field.t option) ?deflate ?(fused = false) ?apply_dot ~apply
    ~(b : Field.t) ~tol ~max_iter ~flops_per_apply () =
  let apply xs ys = apply xs.(0) ys.(0) in
  (* fused, a tail-capable operator computes p·Ap inside the stencil's
     closing sweep — the 2-sweep plan Perf_model prices — bit-identical
     to the separate dot_re through the canonical blocked reduction *)
  let step =
    match apply_dot with
    | Some f when fused -> fun ps aps -> [| f ps.(0) aps.(0) |]
    | _ -> dots apply
  in
  let xs, stats =
    run ~name:"Cg.solve" ~x0s:(Option.map (fun x -> [| x |]) x0) ~deflate ~fused ~apply
      ~step ~bs:[| b |] ~tol ~max_iter ~flops_per_apply
  in
  (xs.(0), stats.(0))

let solve_multi ?(x0s : Field.t array option) ?deflate ?(fused = false) ~apply
    ~(bs : Field.t array) ~tol ~max_iter ~flops_per_apply () =
  let k = Array.length bs in
  if k = 0 then invalid_arg "Cg.solve_multi: empty batch";
  let n = Field.length bs.(0) in
  Array.iter
    (fun (b : Field.t) ->
      if Field.length b <> n then invalid_arg "Cg.solve_multi: length mismatch")
    bs;
  (match x0s with
  | Some xs when Array.length xs <> k ->
    invalid_arg "Cg.solve_multi: x0s width mismatch"
  | _ -> ());
  run ~name:"Cg.solve_multi" ~x0s ~deflate ~fused ~apply ~step:(dots apply)
    ~bs ~tol ~max_iter ~flops_per_apply
