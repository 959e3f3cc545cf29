(* Tests for Linalg: complex arithmetic, SU(3), fields, half codec. *)

module Cplx = Linalg.Cplx
module Su3 = Linalg.Su3
module Field = Linalg.Field

let rng () = Util.Rng.create 20_240_601

let check_close ?(eps = 1e-12) msg a b =
  Alcotest.(check bool) (Printf.sprintf "%s (|%g - %g| <= %g)" msg a b eps) true
    (abs_float (a -. b) <= eps)

(* ---- Cplx ---- *)

let test_cplx_field_axioms () =
  let a = Cplx.make 1.5 (-0.5) and b = Cplx.make 0.25 2. in
  Alcotest.(check bool) "commutative mul" true
    (Cplx.equal (Cplx.mul a b) (Cplx.mul b a));
  Alcotest.(check bool) "a * a^-1 = 1" true (Cplx.equal (Cplx.mul a (Cplx.inv a)) Cplx.one);
  Alcotest.(check bool) "conj involution" true (Cplx.equal (Cplx.conj (Cplx.conj a)) a);
  check_close "norm2 = a conj a" (Cplx.norm2 a) (Cplx.re (Cplx.mul a (Cplx.conj a)))

let test_cplx_exp_i () =
  let e = Cplx.exp_i (Float.pi /. 2.) in
  Alcotest.(check bool) "e^{i pi/2} = i" true (Cplx.equal ~eps:1e-15 e Cplx.i)

(* ---- Su3 ---- *)

let test_su3_identity () =
  let e = Su3.id () in
  Alcotest.(check bool) "unitary" true (Su3.is_unitary e);
  Alcotest.(check bool) "special" true (Su3.is_special_unitary e);
  check_close "trace 3" 3. (Su3.re_trace e)

let test_su3_random_is_special_unitary () =
  let r = rng () in
  for _ = 1 to 20 do
    let u = Su3.random r in
    Alcotest.(check bool) "unitary" true (Su3.is_unitary ~eps:1e-9 u);
    Alcotest.(check bool) "det 1" true (Su3.is_special_unitary ~eps:1e-9 u)
  done

let test_su3_near_identity_spread () =
  let r = rng () in
  let u = Su3.random_near_identity r ~eps:0.01 in
  Alcotest.(check bool) "close to id" true (Su3.frobenius_dist u (Su3.id ()) < 0.2);
  Alcotest.(check bool) "still SU(3)" true (Su3.is_special_unitary ~eps:1e-9 u)

let test_su3_mul_associative () =
  let r = rng () in
  let a = Su3.random r and b = Su3.random r and c = Su3.random r in
  let lhs = Su3.mul (Su3.mul a b) c and rhs = Su3.mul a (Su3.mul b c) in
  check_close ~eps:1e-12 "assoc" 0. (Su3.frobenius_dist lhs rhs)

let test_su3_adj_antihomomorphism () =
  let r = rng () in
  let a = Su3.random r and b = Su3.random r in
  let lhs = Su3.adj (Su3.mul a b) and rhs = Su3.mul (Su3.adj b) (Su3.adj a) in
  check_close "(ab)^dag = b^dag a^dag" 0. (Su3.frobenius_dist lhs rhs)

let test_su3_reunitarize_projects () =
  let r = rng () in
  let u = Su3.random r in
  (* perturb off the group then project back *)
  let perturbed = Su3.copy u in
  perturbed.(0) <- perturbed.(0) +. 0.05;
  perturbed.(7) <- perturbed.(7) -. 0.03;
  let fixed = Su3.reunitarize perturbed in
  Alcotest.(check bool) "back on SU(3)" true (Su3.is_special_unitary ~eps:1e-10 fixed);
  Alcotest.(check bool) "stayed close" true (Su3.frobenius_dist fixed u < 0.3)

let test_su3_mul_vec_matches_get () =
  let r = rng () in
  let u = Su3.random r in
  let v = Array.init 6 (fun _ -> Util.Rng.gaussian r) in
  let w = Su3.mul_vec u v in
  (* compare against explicit complex arithmetic *)
  for row = 0 to 2 do
    let acc = ref Cplx.zero in
    for k = 0 to 2 do
      acc :=
        Cplx.add !acc
          (Cplx.mul (Su3.get u row k) (Cplx.make v.(2 * k) v.((2 * k) + 1)))
    done;
    check_close "re" (Cplx.re !acc) w.(2 * row);
    check_close "im" (Cplx.im !acc) w.((2 * row) + 1)
  done

let test_su3_adj_mul_vec_inverts () =
  let r = rng () in
  let u = Su3.random r in
  let v = Array.init 6 (fun _ -> Util.Rng.gaussian r) in
  let w = Su3.adj_mul_vec u (Su3.mul_vec u v) in
  Array.iteri (fun i x -> check_close ~eps:1e-10 "U^dag U v = v" v.(i) x) w

let test_su3_embed_extract_su2 () =
  (* embed a normalized quaternion and extract it back *)
  let a0, a1, a2, a3 = (0.5, 0.5, 0.5, 0.5) in
  List.iter
    (fun (p, q) ->
      let m = Su3.embed_su2 ~p ~q (a0, a1, a2, a3) in
      Alcotest.(check bool) "embedded is SU(3)" true (Su3.is_special_unitary m);
      let b0, b1, b2, b3 = Su3.extract_su2 ~p ~q m in
      check_close "a0" a0 b0;
      check_close "a1" a1 b1;
      check_close "a2" a2 b2;
      check_close "a3" a3 b3)
    [ (0, 1); (0, 2); (1, 2) ]

let test_su3_determinant_multiplicative () =
  let r = rng () in
  let a = Su3.random r and b = Su3.random r in
  let da = Su3.determinant a and db = Su3.determinant b in
  let dab = Su3.determinant (Su3.mul a b) in
  Alcotest.(check bool) "det(ab) = det a det b" true
    (Cplx.equal ~eps:1e-10 dab (Cplx.mul da db))

(* ---- Field / BLAS1 ---- *)

let test_field_axpy () =
  let x = Field.of_array [| 1.; 2.; 3. |] in
  let y = Field.of_array [| 10.; 20.; 30. |] in
  Field.axpy 2. x y;
  Alcotest.(check (array (float 1e-12))) "y + 2x" [| 12.; 24.; 36. |] (Field.to_array y)

let test_field_xpay () =
  let x = Field.of_array [| 1.; 2. |] in
  let y = Field.of_array [| 10.; 20. |] in
  Field.xpay x 0.5 y;
  Alcotest.(check (array (float 1e-12))) "x + a y" [| 6.; 12. |] (Field.to_array y)

let test_field_norms_and_dots () =
  let r = rng () in
  let n = 2048 in
  let x = Field.create n and y = Field.create n in
  Field.gaussian r x;
  Field.gaussian r y;
  check_close ~eps:1e-9 "norm2 = dot(x,x)" (Field.norm2 x) (Field.dot_re x x);
  let cxy = Field.cdot x y and cyx = Field.cdot y x in
  check_close ~eps:1e-9 "<x|y> = conj <y|x> (re)" (Cplx.re cxy) (Cplx.re cyx);
  check_close ~eps:1e-9 "<x|y> = conj <y|x> (im)" (Cplx.im cxy) (-.Cplx.im cyx);
  check_close ~eps:1e-9 "re cdot = dot_re" (Cplx.re cxy) (Field.dot_re x y)

let test_field_caxpy_matches_complex () =
  let x = Field.of_array [| 1.; 0.; 0.; 1. |] in
  (* x = [1, i] *)
  let y = Field.create 4 in
  Field.caxpy (0., 1.) x y;
  (* y = i * [1, i] = [i, -1] *)
  Alcotest.(check (array (float 1e-12))) "i*x" [| 0.; 1.; -1.; 0. |] (Field.to_array y)

let test_field_cauchy_schwarz () =
  let r = rng () in
  let x = Field.create 240 and y = Field.create 240 in
  Field.gaussian r x;
  Field.gaussian r y;
  let lhs = Cplx.abs (Field.cdot x y) in
  let rhs = Field.norm x *. Field.norm y in
  Alcotest.(check bool) "|<x,y>| <= |x||y|" true (lhs <= rhs *. (1. +. 1e-12))

let test_half_roundtrip_accuracy () =
  let r = rng () in
  let n = 24 * 64 in
  let x = Field.create n in
  Field.gaussian r x;
  let y = Field.Half.round_trip x ~block:24 in
  (* per-block error bounded by norm/2/32767 plus float32 norm rounding *)
  for b = 0 to (n / 24) - 1 do
    let norm = ref 0. in
    for i = 0 to 23 do
      let v = abs_float (Bigarray.Array1.get x ((b * 24) + i)) in
      if v > !norm then norm := v
    done;
    for i = 0 to 23 do
      let d =
        abs_float
          (Bigarray.Array1.get x ((b * 24) + i)
          -. Bigarray.Array1.get y ((b * 24) + i))
      in
      Alcotest.(check bool) "within quantum" true
        (d <= (!norm /. Field.Half.max_q /. 2.) +. (!norm *. 2e-7))
    done
  done

let test_half_preserves_zero_and_scale () =
  let x = Field.create 48 in
  let y = Field.Half.round_trip x ~block:24 in
  Alcotest.(check (float 0.)) "zero stays zero" 0. (Field.norm2 y);
  (* the per-block max element is exactly representable *)
  let z = Field.of_array (Array.init 24 (fun i -> if i = 5 then 7.25 else 0.)) in
  let w = Field.Half.round_trip z ~block:24 in
  Alcotest.(check (float 1e-6)) "max element survives" 7.25 (Bigarray.Array1.get w 5);
  Alcotest.check_raises "block 0"
    (Invalid_argument "Field.Half.create: block must be positive and divide n")
    (fun () -> ignore (Field.Half.create ~block:0 24 : Field.Half.h))

let test_half_relative_error_small () =
  let r = rng () in
  let x = Field.create (24 * 32) in
  Field.gaussian r x;
  let y = Field.Half.round_trip x ~block:24 in
  let d = Field.create (Field.length x) in
  Field.sub x y d;
  let rel = sqrt (Field.norm2 d /. Field.norm2 x) in
  Alcotest.(check bool) (Printf.sprintf "rel err %g < 2e-4" rel) true (rel < 2e-4)

(* ---- qcheck properties ---- *)

let su3_arb =
  QCheck.make
    ~print:(fun u -> Format.asprintf "%a" Su3.pp u)
    (QCheck.Gen.map
       (fun seed -> Su3.random (Util.Rng.create seed))
       QCheck.Gen.int)

let prop_su3_product_closed =
  QCheck.Test.make ~name:"su3 product stays in SU(3)" ~count:50
    (QCheck.pair su3_arb su3_arb) (fun (a, b) ->
      Su3.is_special_unitary ~eps:1e-8 (Su3.mul a b))

let prop_su3_unitarity =
  QCheck.Test.make ~name:"su3 U U^dag = 1" ~count:50 su3_arb (fun u ->
      Su3.frobenius_dist (Su3.mul u (Su3.adj u)) (Su3.id ()) < 1e-9)

let prop_su3_trace_cyclic =
  QCheck.Test.make ~name:"tr(ab) = tr(ba)" ~count:50 (QCheck.pair su3_arb su3_arb)
    (fun (a, b) ->
      Cplx.abs (Cplx.sub (Su3.trace (Su3.mul a b)) (Su3.trace (Su3.mul b a)))
      < 1e-10)

(* ---- in-place SU(3) kernels: bit for bit against the compositions
   they replace ---- *)

(* Entries mixing generic values with exact +0., -0. and small
   integers: the identity rows of the subgroup embedding add ±0. terms,
   and a sum seeded with +0. must absorb them exactly as the full
   product does. *)
let entry_gen =
  QCheck.Gen.(
    frequency
      [
        (6, float_range (-2.) 2.);
        (2, return 0.);
        (2, return (-0.));
        (1, map float_of_int (int_range (-2) 2));
      ])

let show_floats a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a))
let mat_arb = QCheck.make ~print:show_floats QCheck.Gen.(array_size (return 18) entry_gen)

let quat_arb =
  QCheck.make
    ~print:(fun (a, b, c, d) -> show_floats [| a; b; c; d |])
    QCheck.Gen.(quad entry_gen entry_gen entry_gen entry_gen)

let bits a = Array.map Int64.bits_of_float a
let same_bits a b = bits a = bits b
let same_bit x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* The product as a plain triple loop: each entry summed from 0. over
   k = 0, 1, 2 in order, the association every Su3 product keeps. *)
let reference_mul a b =
  Array.init 18 (fun i ->
      let row = i / 6 and col = i mod 6 / 2 and im = i mod 2 = 1 in
      let acc = ref 0. in
      for k = 0 to 2 do
        let ar = a.((6 * row) + (2 * k)) and ai = a.((6 * row) + (2 * k) + 1) in
        let br = b.((6 * k) + (2 * col)) and bi = b.((6 * k) + (2 * col) + 1) in
        acc := !acc +. if im then (ar *. bi) +. (ai *. br) else (ar *. br) -. (ai *. bi)
      done;
      !acc)

let prop_su3_link_mul_adjoint_flags =
  QCheck.Test.make ~name:"link_mul_into adjoint flags = mul of explicit adj, to the bit"
    ~count:200 (QCheck.pair mat_arb mat_arb) (fun (a, b) ->
      (* [a] stored as the second of three links *)
      let links = Field.create 54 in
      Array.iteri (fun i x -> Bigarray.Array1.set links (18 + i) x) a;
      same_bits (Su3.mul a b) (reference_mul a b)
      && List.for_all
           (fun (adj_a, adj_b) ->
             let c = Su3.zero () in
             Su3.link_mul_into ~adj_a ~adj_b links 18 b c;
             let op adj m = if adj then Su3.adj m else m in
             same_bits c (Su3.mul (op adj_a a) (op adj_b b)))
           [ (false, false); (true, false); (false, true); (true, true) ])

let prop_su3_subgroup_kernels =
  QCheck.Test.make
    ~name:"two-row subgroup step = mul (embed_su2 a) u, block = extract (mul u a)"
    ~count:200 (QCheck.triple quat_arb mat_arb mat_arb) (fun (q4, u, a) ->
      List.for_all
        (fun (p, q) ->
          let v = Su3.copy u in
          Su3.embed_su2_mul ~p ~q q4 v;
          let e0, e1, e2, e3 = Su3.extract_su2_mul ~p ~q u a in
          let w0, w1, w2, w3 = Su3.extract_su2 ~p ~q (Su3.mul u a) in
          same_bits v (Su3.mul (Su3.embed_su2 ~p ~q q4) u)
          && same_bit e0 w0 && same_bit e1 w1 && same_bit e2 w2 && same_bit e3 w3)
        [ (0, 1); (0, 2); (1, 2) ])

let prop_su3_re_trace_mul =
  QCheck.Test.make ~name:"re_trace_mul = re_trace (mul a b), to the bit" ~count:200
    (QCheck.pair mat_arb mat_arb) (fun (a, b) ->
      same_bit (Su3.re_trace_mul a b) (Su3.re_trace (Su3.mul a b)))

(* ---- half codec: the exact rounding ---- *)

let half_block = 24

(* The closed form Field.Half must reproduce bit for bit: n is the
   block's largest magnitude rounded to float32; each value rounds half
   away from zero on the 32767/n scale, clamped to ±32767, and q
   decodes to q·(n/32767); a block whose n is 0 decodes to zeros. *)
let half_reference (v : float array) =
  let m = Array.fold_left (fun a x -> Float.max a (abs_float x)) 0. v in
  let n = Int32.float_of_bits (Int32.bits_of_float m) in
  Array.map
    (fun x ->
      if n = 0. then 0.
      else
        let q = Float.round (x *. (32767. /. n)) in
        let q = Float.max (-32767.) (Float.min 32767. q) in
        float_of_int (int_of_float q) *. (n /. 32767.))
    v

(* One block of each kind the rounding can trip on; every block max
   stays within float32's range (e <= 112). *)
let half_block_gen =
  let open QCheck.Gen in
  let scaled e xs = Array.map (fun x -> Float.ldexp x e) xs in
  let uniform = array_repeat half_block (float_range (-1.) 1.) in
  oneof
    [
      (* exact ties: the max is 32767·2^e, so the scale is exactly 2^-e
         and (q ± ½)·2^e lands on q ± ½ *)
      map3
        (fun e (i, sign) qs ->
          let tie (q, up) = float_of_int q +. if up then 0.5 else -0.5 in
          let xs = Array.map tie qs in
          xs.(i) <- sign *. 32767.;
          scaled e xs)
        (int_range (-100) 100)
        (pair (int_range 0 (half_block - 1)) (oneofl [ 1.; -1. ]))
        (array_repeat half_block (pair (int_range (-32766) 32766) bool));
      return (Array.make half_block 0.);
      (* ±max: every value at the block's magnitude, which float32 may
         round up or down *)
      map3
        (fun e m signs -> Array.map (fun s -> Float.ldexp (if s then m else -.m) e) signs)
        (int_range (-60) 111) (float_range 0.5 1.) (array_repeat half_block bool);
      (* a max that float32 rounds to a subnormal or to zero *)
      map2 scaled (int_range (-170) (-126)) uniform;
      map2 scaled (int_range (-60) 112) uniform;
    ]

let prop_half_reference_rounding =
  let print blocks =
    Array.concat (Array.to_list blocks)
    |> Array.map (Printf.sprintf "%h")
    |> Array.to_list |> String.concat "; "
  in
  QCheck.Test.make ~name:"half codec = reference rounding" ~count:2000
    (QCheck.make ~print QCheck.Gen.(array_size (int_range 1 4) half_block_gen))
    (fun blocks ->
      let v = Field.of_array (Array.concat (Array.to_list blocks)) in
      let got = Field.to_array (Field.Half.round_trip v ~block:half_block) in
      let want = Array.concat (Array.to_list (Array.map half_reference blocks)) in
      Array.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) got want)

(* ---- PLAN002's aliasing rule at runtime ---- *)

(* [rejects kernel call]: [call alias] raises Invalid_argument naming
   [kernel] when [alias] hands it a written vector again — the same
   handle, or an Array1.sub view over its storage. *)
let rejects kernel call =
  List.iter
    (fun (how, alias) ->
      match call alias with
      | () -> Alcotest.failf "%s: an output aliased %s accepted" kernel how
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s, %s: %S names the kernel" kernel how msg)
          true
          (String.starts_with ~prefix:(kernel ^ ": ") msg))
    [
      ("by handle", Fun.id);
      ("through a sub view", fun v -> Bigarray.Array1.sub v 0 (Field.length v));
    ]

let test_kernels_reject_aliased_outputs () =
  let n = 64 in
  let v () =
    let f = Field.create n in
    Field.gaussian (rng ()) f;
    f
  in
  let module Fused = Linalg.Fused in
  let module Multi = Linalg.Multi_blas in
  let fused f = ignore (f () : float) and multi f = ignore (f () : float array) in
  rejects "Field.blit" (fun a -> let y = v () in Field.blit (a y) y);
  rejects "Field.axpy" (fun a -> let y = v () in Field.axpy 0.5 (a y) y);
  rejects "Field.xpay" (fun a -> let y = v () in Field.xpay (a y) 0.5 y);
  rejects "Field.sub" (fun a -> let z = v () in Field.sub (v ()) (a z) z);
  rejects "Field.caxpy" (fun a -> let y = v () in Field.caxpy (0.5, -0.5) (a y) y);
  rejects "Fused.axpy_norm2" (fun a ->
      let y = v () in
      fused (fun () -> Fused.axpy_norm2 0.5 (a y) y));
  (* q = p: p is updated, so it may not also be read as q *)
  rejects "Fused.xpay_dot" (fun a ->
      let p = v () in
      fused (fun () -> Fused.xpay_dot (v ()) 0.5 p (a p)));
  rejects "Fused.cg_update" (fun a ->
      let x = v () in
      fused (fun () -> Fused.cg_update 0.5 (v ()) (v ()) x (a x)));
  rejects "Fused.caxpy_norm2" (fun a ->
      let y = v () in
      fused (fun () -> Fused.caxpy_norm2 (0.5, 0.5) (a y) y));
  (* across slots: slot 1 reads what slot 0 updates *)
  rejects "Multi_blas.axpy_norm2" (fun a ->
      let y = v () in
      multi (fun () -> Multi.axpy_norm2 [| 0.5; 0.5 |] [| v (); a y |] [| y; v () |]));
  rejects "Multi_blas.xpay_dot" (fun a ->
      let p = v () in
      multi (fun () -> Multi.xpay_dot [| v () |] [| 0.5 |] [| p |] [| a p |]));
  rejects "Multi_blas.cg_update" (fun a ->
      let r = v () in
      multi (fun () ->
          Multi.cg_update [| 0.5; 0.5 |] [| v (); v () |] [| v (); v () |] [| v (); a r |]
            [| r; v () |]));
  rejects "Multi_blas.block_axpy" (fun a ->
      let y = v () in
      Multi.block_axpy [| [| 1. |]; [| 1. |] |] [| v () |] [| y; a y |]);
  (* a vector read twice is legal *)
  let x = v () and p = v () in
  ignore (Field.dot_re x x : float);
  ignore (Field.cdot x (Bigarray.Array1.sub x 0 n) : Cplx.t);
  ignore (Fused.xpay_dot x 0.5 p x : float)

let suite =
  [
    Alcotest.test_case "cplx field axioms" `Quick test_cplx_field_axioms;
    Alcotest.test_case "cplx exp_i" `Quick test_cplx_exp_i;
    Alcotest.test_case "su3 identity" `Quick test_su3_identity;
    Alcotest.test_case "su3 random in group" `Quick test_su3_random_is_special_unitary;
    Alcotest.test_case "su3 near identity" `Quick test_su3_near_identity_spread;
    Alcotest.test_case "su3 associativity" `Quick test_su3_mul_associative;
    Alcotest.test_case "su3 adjoint reverses" `Quick test_su3_adj_antihomomorphism;
    Alcotest.test_case "su3 reunitarize" `Quick test_su3_reunitarize_projects;
    Alcotest.test_case "su3 mul_vec" `Quick test_su3_mul_vec_matches_get;
    Alcotest.test_case "su3 adj_mul_vec" `Quick test_su3_adj_mul_vec_inverts;
    Alcotest.test_case "su3 su2 embed/extract" `Quick test_su3_embed_extract_su2;
    Alcotest.test_case "su3 determinant" `Quick test_su3_determinant_multiplicative;
    Alcotest.test_case "field axpy" `Quick test_field_axpy;
    Alcotest.test_case "field xpay" `Quick test_field_xpay;
    Alcotest.test_case "field norms/dots" `Quick test_field_norms_and_dots;
    Alcotest.test_case "field caxpy" `Quick test_field_caxpy_matches_complex;
    Alcotest.test_case "field cauchy-schwarz" `Quick test_field_cauchy_schwarz;
    Alcotest.test_case "kernels reject aliased outputs" `Quick
      test_kernels_reject_aliased_outputs;
    Alcotest.test_case "half codec accuracy" `Quick test_half_roundtrip_accuracy;
    Alcotest.test_case "half zero/scale" `Quick test_half_preserves_zero_and_scale;
    Alcotest.test_case "half relative error" `Quick test_half_relative_error_small;
    QCheck_alcotest.to_alcotest prop_half_reference_rounding;
    QCheck_alcotest.to_alcotest prop_su3_product_closed;
    QCheck_alcotest.to_alcotest prop_su3_unitarity;
    QCheck_alcotest.to_alcotest prop_su3_trace_cyclic;
    QCheck_alcotest.to_alcotest prop_su3_link_mul_adjoint_flags;
    QCheck_alcotest.to_alcotest prop_su3_subgroup_kernels;
    QCheck_alcotest.to_alcotest prop_su3_re_trace_mul;
  ]
