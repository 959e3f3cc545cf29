(* SU(3) matrices stored as flat float arrays of length 18:
   element (row, col) occupies indices 2*(3*row+col) (real) and
   2*(3*row+col)+1 (imaginary). Row-major, matching the gauge-link
   storage in Lattice.Gauge so links can be viewed without copies. *)

type t = float array

let idx row col = 2 * ((3 * row) + col)

let zero () = Array.make 18 0.

let id () =
  let m = zero () in
  m.(idx 0 0) <- 1.;
  m.(idx 1 1) <- 1.;
  m.(idx 2 2) <- 1.;
  m

let copy = Array.copy

let get m row col = Cplx.make m.(idx row col) m.(idx row col + 1)

let set m row col (c : Cplx.t) =
  m.(idx row col) <- c.Cplx.re;
  m.(idx row col + 1) <- c.Cplx.im

let of_fun f =
  let m = zero () in
  for row = 0 to 2 do
    for col = 0 to 2 do
      set m row col (f row col)
    done
  done;
  m

(* ---- the product body ----
   Every product in this module sums entry (row, col) of op(a)·op(b)
   from 0. over k = 0, 1, 2 in order, op being the adjoint where
   flagged: [dot_re]/[dot_im] below on one row of op(a) and one column
   of op(b). The in-place kernels and the allocating wrappers share
   that association, so they agree to the bit. *)

let[@inline] dot_re a0r a0i a1r a1i a2r a2i b0r b0i b1r b1i b2r b2i =
  ((0. +. ((a0r *. b0r) -. (a0i *. b0i))) +. ((a1r *. b1r) -. (a1i *. b1i)))
  +. ((a2r *. b2r) -. (a2i *. b2i))

let[@inline] dot_im a0r a0i a1r a1i a2r a2i b0r b0i b1r b1i b2r b2i =
  ((0. +. ((a0r *. b0i) +. (a0i *. b0r))) +. ((a1r *. b1i) +. (a1i *. b1r)))
  +. ((a2r *. b2i) +. (a2i *. b2r))

(* Entry of a·b, both as stored, from the row of [a] at offset [x]
   (6·row) and the column of [b] at offset [y] (2·col). Callers check
   both lengths. *)
let[@inline] row_col_re (a : t) x (b : t) y =
  Array.(
    dot_re (unsafe_get a x) (unsafe_get a (x + 1)) (unsafe_get a (x + 2))
      (unsafe_get a (x + 3)) (unsafe_get a (x + 4)) (unsafe_get a (x + 5))
      (unsafe_get b y) (unsafe_get b (y + 1)) (unsafe_get b (y + 6))
      (unsafe_get b (y + 7)) (unsafe_get b (y + 12)) (unsafe_get b (y + 13)))

let[@inline] row_col_im (a : t) x (b : t) y =
  Array.(
    dot_im (unsafe_get a x) (unsafe_get a (x + 1)) (unsafe_get a (x + 2))
      (unsafe_get a (x + 3)) (unsafe_get a (x + 4)) (unsafe_get a (x + 5))
      (unsafe_get b y) (unsafe_get b (y + 1)) (unsafe_get b (y + 6))
      (unsafe_get b (y + 7)) (unsafe_get b (y + 12)) (unsafe_get b (y + 13)))

let check_len name m = if Array.length m <> 18 then invalid_arg (name ^ ": not 18 floats")

(* Strides of op(m)(i, j) = m.(i·si + j·sj): (6, 2) as stored, (2, 6)
   for the adjoint, whose imaginary parts carry [sign] −1 — an exact
   negation, the value [adj] stores. *)
let strides adj = if adj then (2, 6) else (6, 2)
let sign adj = if adj then -1. else 1.

(* Row [row] of c = op(a)·op(b) from that row of op(a); column col of
   op(b) sits at [col·b_col + k·b_k]. *)
let[@inline] row_into a0r a0i a1r a1i a2r a2i (b : t) ~b_k ~b_col ~bsg (c : t) row =
  for col = 0 to 2 do
    let y0 = col * b_col in
    let y1 = y0 + b_k in
    let y2 = y1 + b_k in
    let b0r = Array.unsafe_get b y0 and b0i = bsg *. Array.unsafe_get b (y0 + 1) in
    let b1r = Array.unsafe_get b y1 and b1i = bsg *. Array.unsafe_get b (y1 + 1) in
    let b2r = Array.unsafe_get b y2 and b2i = bsg *. Array.unsafe_get b (y2 + 1) in
    let o = idx row col in
    Array.unsafe_set c o (dot_re a0r a0i a1r a1i a2r a2i b0r b0i b1r b1i b2r b2i);
    Array.unsafe_set c (o + 1) (dot_im a0r a0i a1r a1i a2r a2i b0r b0i b1r b1i b2r b2i)
  done

let mul a b =
  check_len "Su3.mul" a;
  check_len "Su3.mul" b;
  let c = zero () in
  for row = 0 to 2 do
    let x = 6 * row in
    Array.(
      row_into (unsafe_get a x) (unsafe_get a (x + 1)) (unsafe_get a (x + 2))
        (unsafe_get a (x + 3)) (unsafe_get a (x + 4)) (unsafe_get a (x + 5))
        b ~b_k:6 ~b_col:2 ~bsg:1. c row)
  done;
  c

let link_mul_into ?(adj_a = false) ?(adj_b = false) (links : Field.t) off b c =
  if off < 0 || off > Bigarray.Array1.dim links - 18 then
    invalid_arg "Su3.link_mul_into: link outside the storage";
  check_len "Su3.link_mul_into" b;
  check_len "Su3.link_mul_into" c;
  if c == b then invalid_arg "Su3.link_mul_into: output aliases an operand";
  let a_row, a_k = strides adj_a and b_k, b_col = strides adj_b in
  let asg = sign adj_a and bsg = sign adj_b in
  for row = 0 to 2 do
    let x0 = off + (row * a_row) in
    let x1 = x0 + a_k in
    let x2 = x1 + a_k in
    Bigarray.Array1.(
      row_into (unsafe_get links x0)
        (asg *. unsafe_get links (x0 + 1))
        (unsafe_get links x1)
        (asg *. unsafe_get links (x1 + 1))
        (unsafe_get links x2)
        (asg *. unsafe_get links (x2 + 1))
        b ~b_k ~b_col ~bsg c row)
  done

let adj a =
  let c = zero () in
  for row = 0 to 2 do
    for col = 0 to 2 do
      c.(idx row col) <- a.(idx col row);
      c.(idx row col + 1) <- -.a.(idx col row + 1)
    done
  done;
  c

(* Re Tr(a·b): the three diagonal entries' real parts, summed as
   [re_trace] sums them, without forming the product. *)
let re_trace_mul a b =
  check_len "Su3.re_trace_mul" a;
  check_len "Su3.re_trace_mul" b;
  let t0 = row_col_re a 0 b 0 in
  let t1 = row_col_re a 6 b 2 in
  let t2 = row_col_re a 12 b 4 in
  t0 +. t1 +. t2

let add a b = Array.init 18 (fun i -> a.(i) +. b.(i))
let sub a b = Array.init 18 (fun i -> a.(i) -. b.(i))
let scale s a = Array.map (fun x -> s *. x) a

let cscale (c : Cplx.t) a =
  let m = zero () in
  for e = 0 to 8 do
    let re = a.(2 * e) and im = a.((2 * e) + 1) in
    m.(2 * e) <- (c.Cplx.re *. re) -. (c.Cplx.im *. im);
    m.((2 * e) + 1) <- (c.Cplx.re *. im) +. (c.Cplx.im *. re)
  done;
  m

let trace a =
  Cplx.make
    (a.(idx 0 0) +. a.(idx 1 1) +. a.(idx 2 2))
    (a.(idx 0 0 + 1) +. a.(idx 1 1 + 1) +. a.(idx 2 2 + 1))

let re_trace a = a.(idx 0 0) +. a.(idx 1 1) +. a.(idx 2 2)

let frobenius_dist a b =
  let acc = ref 0. in
  for i = 0 to 17 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let determinant a =
  let open Cplx in
  let g = get a in
  let minor r1 r2 c1 c2 = sub (mul (g r1 c1) (g r2 c2)) (mul (g r1 c2) (g r2 c1)) in
  add
    (sub (mul (g 0 0) (minor 1 2 1 2)) (mul (g 0 1) (minor 1 2 0 2)))
    (mul (g 0 2) (minor 1 2 0 1))

(* mul_vec: w = m * v where v, w are 3-component complex vectors stored
   as length-6 float arrays [re0; im0; re1; im1; re2; im2]. *)
let mul_vec m v =
  let w = Array.make 6 0. in
  for row = 0 to 2 do
    let re = ref 0. and im = ref 0. in
    for k = 0 to 2 do
      let mr = m.(idx row k) and mi = m.(idx row k + 1) in
      let vr = v.(2 * k) and vi = v.((2 * k) + 1) in
      re := !re +. ((mr *. vr) -. (mi *. vi));
      im := !im +. ((mr *. vi) +. (mi *. vr))
    done;
    w.(2 * row) <- !re;
    w.((2 * row) + 1) <- !im
  done;
  w

let adj_mul_vec m v =
  let w = Array.make 6 0. in
  for row = 0 to 2 do
    let re = ref 0. and im = ref 0. in
    for k = 0 to 2 do
      (* (m^dag)_{row,k} = conj m_{k,row} *)
      let mr = m.(idx k row) and mi = -.m.(idx k row + 1) in
      let vr = v.(2 * k) and vi = v.((2 * k) + 1) in
      re := !re +. ((mr *. vr) -. (mi *. vi));
      im := !im +. ((mr *. vi) +. (mi *. vr))
    done;
    w.(2 * row) <- !re;
    w.((2 * row) + 1) <- !im
  done;
  w

(* Project back onto SU(3) by Gram-Schmidt on the first two rows and
   completing the third as the conjugate cross product. Standard cure
   for rounding drift in long Monte Carlo runs. In place: row 0 is
   normalised, row 1 loses its projection on row 0 and is normalised,
   and row 2 is rebuilt from the two. *)
(* |row r|² as the real part of <r|r> = sum conj(r_k) r_k, then the
   row divided by its norm. *)
let normalize_row u r =
  let acc = ref 0. in
  for k = 0 to 2 do
    let x = u.(idx r k) and y = u.(idx r k + 1) in
    acc := !acc +. ((x *. x) +. (y *. y))
  done;
  let n = sqrt !acc in
  if n = 0. then invalid_arg "Su3.reunitarize: zero row";
  for i = 6 * r to (6 * r) + 5 do
    u.(i) <- u.(i) /. n
  done

let reunitarize_in_place u =
  check_len "Su3.reunitarize_in_place" u;
  normalize_row u 0;
  (* <r0|r1> *)
  let pre = ref 0. and pim = ref 0. in
  for k = 0 to 2 do
    let ar = u.(idx 0 k) and ai = u.(idx 0 k + 1) in
    let br = u.(idx 1 k) and bi = u.(idx 1 k + 1) in
    pre := !pre +. ((ar *. br) +. (ai *. bi));
    pim := !pim +. ((ar *. bi) -. (ai *. br))
  done;
  let pre = !pre and pim = !pim in
  for k = 0 to 2 do
    let r0r = u.(idx 0 k) and r0i = u.(idx 0 k + 1) in
    u.(idx 1 k) <- u.(idx 1 k) -. ((pre *. r0r) -. (pim *. r0i));
    u.(idx 1 k + 1) <- u.(idx 1 k + 1) -. ((pre *. r0i) +. (pim *. r0r))
  done;
  normalize_row u 1;
  (* r2 = conj(r0 × r1) *)
  for k = 0 to 2 do
    let k1 = (k + 1) mod 3 and k2 = (k + 2) mod 3 in
    let ar1 = u.(idx 0 k1) and ai1 = u.(idx 0 k1 + 1) in
    let ar2 = u.(idx 0 k2) and ai2 = u.(idx 0 k2 + 1) in
    let br1 = u.(idx 1 k1) and bi1 = u.(idx 1 k1 + 1) in
    let br2 = u.(idx 1 k2) and bi2 = u.(idx 1 k2 + 1) in
    u.(idx 2 k) <- ((ar1 *. br2) -. (ai1 *. bi2)) -. ((ar2 *. br1) -. (ai2 *. bi1));
    u.(idx 2 k + 1) <- -.(((ar1 *. bi2) +. (ai1 *. br2)) -. ((ar2 *. bi1) +. (ai2 *. br1)))
  done

let reunitarize m =
  let u = copy m in
  reunitarize_in_place u;
  u

let is_unitary ?(eps = 1e-10) m =
  frobenius_dist (mul m (adj m)) (id ()) <= eps

let is_special_unitary ?(eps = 1e-10) m =
  is_unitary ~eps m && Cplx.abs (Cplx.sub (determinant m) Cplx.one) <= eps

(* Random SU(3) close to the identity: exponentiate a small random
   traceless anti-hermitian matrix via reunitarized first-order form.
   eps controls the spread; eps >= 1 gives an essentially random walk
   step used to build "hot" starts. *)
let random_near_identity rng ~eps =
  (* H = eps * (G - G^dag)/2 - i.e. anti-hermitian; U = reunitarize(1 + H) *)
  let g = of_fun (fun _ _ -> Cplx.make (Util.Rng.gaussian rng) (Util.Rng.gaussian rng)) in
  let h = scale (0.5 *. eps) (sub g (adj g)) in
  (* remove trace to stay in su(3) *)
  let tr = trace h in
  let third = Cplx.scale (1. /. 3.) tr in
  let h = copy h in
  for d = 0 to 2 do
    h.(idx d d) <- h.(idx d d) -. third.Cplx.re;
    h.(idx d d + 1) <- h.(idx d d + 1) -. third.Cplx.im
  done;
  reunitarize (add (id ()) h)

let random rng =
  (* Product of several spread-1 steps loses all memory of the identity. *)
  let u = ref (random_near_identity rng ~eps:1.) in
  for _ = 1 to 3 do
    u := mul !u (random_near_identity rng ~eps:1.)
  done;
  !u

(* SU(2) subgroup embedding for the Cabibbo-Marinari heatbath. An SU(2)
   element (a0, a1, a2, a3) with a0^2+|a|^2 = 1 embeds into rows/cols
   (p, q) of an SU(3) identity. *)
let embed_su2 ~p ~q (a0, a1, a2, a3) =
  let m = id () in
  set m p p (Cplx.make a0 a3);
  set m p q (Cplx.make a2 a1);
  set m q p (Cplx.make (-.a2) a1);
  set m q q (Cplx.make a0 (-.a3));
  m

(* The quaternion coefficients of a 2x2 block [[a, b], [c, d]]. *)
let[@inline] su2_of_block ar ai br bi cr ci dr di =
  (0.5 *. (ar +. dr), 0.5 *. (bi +. ci), 0.5 *. (br -. cr), 0.5 *. (ai -. di))

(* Extract the SU(2)-like content of rows/cols (p,q): returns the
   coefficients (a0,a1,a2,a3) of the projection of the 2x2 submatrix
   onto the quaternion basis, unnormalized. *)
let extract_su2 ~p ~q m =
  su2_of_block m.(idx p p) m.(idx p p + 1) m.(idx p q) m.(idx p q + 1)
    m.(idx q p) m.(idx q p + 1) m.(idx q q) m.(idx q q + 1)

let check_subgroup name ~p ~q =
  if not (0 <= p && p < q && q <= 2) then invalid_arg (name ^ ": need 0 <= p < q <= 2")

(* [extract_su2 ~p ~q (mul u a)] from the four entries of the (p, q)
   block alone, each summed as [mul] sums it. *)
let extract_su2_mul ~p ~q u a =
  check_subgroup "Su3.extract_su2_mul" ~p ~q;
  check_len "Su3.extract_su2_mul" u;
  check_len "Su3.extract_su2_mul" a;
  let up = 6 * p and uq = 6 * q and ap = 2 * p and aq = 2 * q in
  su2_of_block (row_col_re u up a ap) (row_col_im u up a ap) (row_col_re u up a aq)
    (row_col_im u up a aq) (row_col_re u uq a ap) (row_col_im u uq a ap)
    (row_col_re u uq a aq) (row_col_im u uq a aq)

(* u <- embed_su2 ~p ~q alpha · u, in place, as two rows. Row p of the
   product sums E(p,p)·u(p,col) then E(p,q)·u(q,col) from 0.; the zero
   E(p,r) term adds ±0., which leaves a sum seeded with +0. unchanged.
   Row r = 3 − p − q of the embedded identity yields 0. +. u(r,col). *)
let embed_su2_mul ~p ~q (a0, a1, a2, a3) u =
  check_subgroup "Su3.embed_su2_mul" ~p ~q;
  check_len "Su3.embed_su2_mul" u;
  let na2 = -.a2 and na3 = -.a3 in
  let r = 3 - p - q in
  for col = 0 to 2 do
    let ip = idx p col and iq = idx q col and ir = idx r col in
    let upr = u.(ip) and upi = u.(ip + 1) and uqr = u.(iq) and uqi = u.(iq + 1) in
    u.(ip) <- (0. +. ((a0 *. upr) -. (a3 *. upi))) +. ((a2 *. uqr) -. (a1 *. uqi));
    u.(ip + 1) <- (0. +. ((a0 *. upi) +. (a3 *. upr))) +. ((a2 *. uqi) +. (a1 *. uqr));
    u.(iq) <- (0. +. ((na2 *. upr) -. (a1 *. upi))) +. ((a0 *. uqr) -. (na3 *. uqi));
    u.(iq + 1) <- (0. +. ((na2 *. upi) +. (a1 *. upr))) +. ((a0 *. uqi) +. (na3 *. uqr));
    u.(ir) <- 0. +. u.(ir);
    u.(ir + 1) <- 0. +. u.(ir + 1)
  done

let pp ppf m =
  for row = 0 to 2 do
    Format.fprintf ppf "[";
    for col = 0 to 2 do
      Format.fprintf ppf " %a" Cplx.pp (get m row col)
    done;
    Format.fprintf ppf " ]@."
  done
