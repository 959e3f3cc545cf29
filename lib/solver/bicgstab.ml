(* BiCGStab on the (non-hermitian) operator itself — the standard
   alternative to CG on the normal equations for Wilson-like systems.
   Included as a baseline: for domain-wall fermions the paper's
   production choice is CGNE ("the state-of-the-art technique is to
   utilize conjugate gradient on the normal equations"); the bench
   ablation shows BiCGStab struggling on the 5D operator, which is why.
   Complex arithmetic on interleaved fields, double-precision
   reductions. *)

module Field = Linalg.Field
module Cplx = Linalg.Cplx

let cmul (ar, ai) (br, bi) = ((ar *. br) -. (ai *. bi), (ar *. bi) +. (ai *. br))

let cdiv (ar, ai) (br, bi) =
  let d = (br *. br) +. (bi *. bi) in
  (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)

let cnorm2 (ar, ai) = (ar *. ar) +. (ai *. ai)
let cneg (ar, ai) = (-.ar, -.ai)
let of_cplx (c : Cplx.t) = (c.Cplx.re, c.Cplx.im)

(* p <- r + beta * p (complex beta, interleaved layout). *)
let xpby (r : Field.t) (br, bi) (p : Field.t) =
  Field.launch "Bicgstab.xpby" None ~n:(Field.length r) Util.Prof.[ read r; update p ]
    (fun () ->
      for k = 0 to (Field.length r / 2) - 1 do
        let pr = Bigarray.Array1.unsafe_get p (2 * k) in
        let pi = Bigarray.Array1.unsafe_get p ((2 * k) + 1) in
        Bigarray.Array1.unsafe_set p (2 * k)
          (Bigarray.Array1.unsafe_get r (2 * k) +. ((br *. pr) -. (bi *. pi)));
        Bigarray.Array1.unsafe_set p ((2 * k) + 1)
          (Bigarray.Array1.unsafe_get r ((2 * k) + 1) +. ((br *. pi) +. (bi *. pr)))
      done)

let stats ~iterations ~converged ~rel ~true_rel ~flops ~t_start =
  {
    Cg.iterations;
    converged;
    relative_residual = rel;
    true_relative_residual = Some true_rel;
    flops;
    seconds = Util.Clock.now_s () -. t_start;
    reliable_updates = 0;
  }

let solve ?(fused = false) ~apply ~(b : Field.t) ~tol ~max_iter ~flops_per_apply () =
  let n = Field.length b in
  let t_start = Util.Clock.now_s () in
  let x = Field.create n in
  let r = Field.copy b in
  let tmp = Field.create n in
  let applies = ref 0 in
  let b2 = Field.norm2 b in
  if not (Float.is_finite b2) then invalid_arg "Bicgstab.solve: non-finite b";
  if b2 = 0. then begin
    Field.fill x 0.;
    (x, stats ~iterations:0 ~converged:true ~rel:0. ~true_rel:0. ~flops:0. ~t_start)
  end
  else begin
    let target = tol *. tol *. b2 in
    let r_hat = Field.copy r in
    let p = Field.copy r in
    let v = Field.create n in
    let s = Field.create n in
    let t = Field.create n in
    let rho = ref (of_cplx (Field.cdot r_hat r)) in
    let iters = ref 0 in
    let converged = ref (b2 <= target) in
    let broken = ref false in
    while (not !converged) && (not !broken) && !iters < max_iter do
      incr iters;
      apply p v;
      incr applies;
      let rhv = of_cplx (Field.cdot r_hat v) in
      if cnorm2 rhv < 1e-120 then broken := true
      else begin
        let alpha = cdiv !rho rhv in
        (* s = r - alpha v, with |s|² riding the same sweep when
           fused (caxpy_norm2 ≡ caxpy; norm2 bit-for-bit). *)
        Field.blit r s;
        let s2 =
          if fused then Linalg.Fused.caxpy_norm2 (cneg alpha) v s
          else begin
            Field.caxpy (cneg alpha) v s;
            Field.norm2 s
          end
        in
        Util.Prof.mark ~rhs:0 s2;
        if s2 <= target then begin
          Field.caxpy alpha p x;
          converged := true
        end
        else begin
          apply s t;
          incr applies;
          let tt = Field.norm2 t in
          if tt < 1e-120 then broken := true
          else begin
            let ts = of_cplx (Field.cdot t s) in
            let omega = (fst ts /. tt, snd ts /. tt) in
            Field.caxpy alpha p x;
            Field.caxpy omega s x;
            (* r = s - omega t *)
            Field.blit s r;
            let r2 =
              if fused then Linalg.Fused.caxpy_norm2 (cneg omega) t r
              else begin
                Field.caxpy (cneg omega) t r;
                Field.norm2 r
              end
            in
            Util.Prof.mark ~rhs:0 r2;
            if r2 <= target then converged := true
            else begin
              let rho' = of_cplx (Field.cdot r_hat r) in
              if cnorm2 rho' < 1e-120 || cnorm2 omega < 1e-120 then
                broken := true
              else begin
                let beta = cmul (cdiv rho' !rho) (cdiv alpha omega) in
                rho := rho';
                (* p = r + beta (p - omega v) *)
                Field.caxpy (cneg omega) v p;
                xpby r beta p
              end
            end
          end
        end
      end
    done;
    (* b − Ax lands in t, which the solve no longer reads *)
    apply x tmp;
    incr applies;
    Field.sub b tmp t;
    let true_rel = sqrt (Field.norm2 t /. b2) in
    let flops =
      (float_of_int !applies *. flops_per_apply)
      +. (float_of_int !iters *. 2. *. Cg.blas1_flops ~fused n)
    in
    ( x,
      stats ~iterations:!iters ~converged:!converged
        ~rel:(sqrt (Field.norm2 r /. b2))
        ~true_rel ~flops ~t_start )
  end
