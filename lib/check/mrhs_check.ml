(* Static checker for batched multi-RHS launch plans (Wilson.hop_multi
   / Multi_blas / Cg.solve_multi). A batched launch is summarized as a
   [plan] — which batched kernel, the batch width k, the per-RHS
   vector length, the reduction block, the per-RHS masking state — and
   the pass verifies the contract the per-RHS bit-identity rests on:

   MRHS001  a converged right-hand side is still in the active set:
            the batched update kernels keep advancing an iterate the
            independent solve would have frozen, so that RHS's
            trajectory silently diverges from the k-independent-solves
            reference — the masking bug class
   MRHS002  the per-RHS mask width or the reduction partition
            disagrees with the batch: a mask narrower or wider than k
            silently drops or invents systems at the batch boundary,
            and a per-RHS fold on a non-canonical block associates
            partials differently from the single-RHS reductions *)

type plan = {
  kernel : string;  (* batched kernel name, e.g. "wilson_hop_multi" *)
  k : int;  (* batch width: right-hand sides per gauge stream *)
  n : int;  (* per-RHS vector length in floats *)
  block : int;  (* reduction block of the per-RHS folds *)
  active : bool array;  (* per-RHS: still contributing updates *)
  converged : bool array;  (* per-RHS: met its stopping criterion *)
}

let rules =
  [
    ("MRHS001", "converged right-hand side still in the batched active set");
    ("MRHS002", "per-RHS mask or reduction partition mismatches the batch");
  ]

let plan ~kernel ~k ~n ~block ~active ~converged () =
  { kernel; k; n; block; active; converged }

let loc p = Printf.sprintf "%s[k=%d,n=%d,block=%d]" p.kernel p.k p.n p.block

let check_masking p =
  let ds = ref [] in
  let w = min (Array.length p.active) (Array.length p.converged) in
  for i = 0 to w - 1 do
    if p.converged.(i) && p.active.(i) then
      ds :=
        Diagnostic.error ~rule:"MRHS001" ~loc:(loc p)
          ~hint:
            "drop a converged system from the active set before the next \
             batched update (Cg.solve_multi's masking) — its iterate must \
             freeze exactly where the independent solve froze it"
          (Printf.sprintf
             "right-hand side %d is converged but still active: the batched \
              kernels keep updating an iterate the independent solve would \
              have frozen, so its trajectory diverges from the k independent \
              solves"
             i)
        :: !ds
  done;
  List.rev !ds

let check_partition p =
  let mask_ds =
    let bad name len =
      Diagnostic.error ~rule:"MRHS002" ~loc:(loc p)
        ~hint:
          "size every per-RHS mask exactly to the batch width k — the \
           batched kernels index masks by RHS slot"
        (Printf.sprintf
           "per-RHS %s mask has width %d for a batch of %d: systems at the \
            batch boundary are silently dropped or invented"
           name len p.k)
    in
    (if Array.length p.active <> p.k then
       [ bad "active" (Array.length p.active) ]
     else [])
    @
    if Array.length p.converged <> p.k then
      [ bad "converged" (Array.length p.converged) ]
    else []
  in
  let block_ds =
    if p.block <> Linalg.Field.reduce_block then
      [
        Diagnostic.error ~rule:"MRHS002" ~loc:(loc p)
          ~hint:
            (Printf.sprintf
               "fold each RHS through the canonical %d-float blocks \
                (Field.reduce_block / Multi_blas.batch_fold) — the \
                association of the single-RHS reductions"
               Linalg.Field.reduce_block)
          (Printf.sprintf
             "batched per-RHS reduction partitions %d-float blocks where \
              the single-RHS kernels partition %d: partials associate \
              differently and the batch is not bit-identical to k \
              independent reductions"
             p.block Linalg.Field.reduce_block);
      ]
    else []
  in
  mask_ds @ block_ds

let verify_plan p = check_masking p @ check_partition p
let verify_plans ps = List.concat_map verify_plan ps
