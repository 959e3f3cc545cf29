(* The production stencil against the slice-by-slice reference
   (Mobius_oracle): every Schur-chain entry, its batched twin, the full
   Möbius operator and the 4D Wilson entries must equal the oracle bit
   for bit (compared through Int64.bits_of_float, so a -0. against a
   +0. fails), across L5, Shamir/Möbius parameters, link codecs, pool
   widths, batch widths and source shapes. Point sources are mostly
   exact zeros: they pin the signed-zero behaviour of every float
   expression the fused body rewrote. *)

module Field = Linalg.Field
module Fused = Linalg.Fused
module Codec = Linalg.Su3_codec
module Wilson = Dirac.Wilson
module Mobius = Dirac.Mobius
module Oracle = Mobius_oracle
module Pool = Util.Pool

let same_bits (a : Field.t) (b : Field.t) =
  Field.length a = Field.length b
  &&
  let ok = ref true in
  for i = 0 to Field.length a - 1 do
    if Int64.bits_of_float a.{i} <> Int64.bits_of_float b.{i} then ok := false
  done;
  !ok

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* 4^3 x 8: a checkerboard 5D field of L5·k >= 6 columns clears
   Field.parallel_cutoff, so pooled widths really split the sites *)
let geom = lazy (Lattice.Geometry.create [| 4; 4; 4; 8 |])

let gauge =
  lazy
    (Lattice.Gauge.with_antiperiodic_time
       (Lattice.Gauge.warm (Lazy.force geom) (Util.Rng.create 4242) ~eps:0.4))

let codecs = [| Codec.Full18; Codec.Recon12; Codec.Recon8 |]
let widths = [| 1; 2; 4 |]

(* Gaussian, or a point source: one nonzero spinor component per field
   (a different one per right-hand side), every other float an exact
   zero *)
let source ~point ~seed n =
  let v = Field.create n in
  if point then v.{(seed * 7919) mod n} <- 1.
  else Field.gaussian (Util.Rng.create (1000 + seed)) v;
  v

let with_pool width f =
  let saved = Pool.get_default () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default saved)
    (fun () ->
      Pool.set_default (Pool.shared ~domains:width);
      f ())

let case_gen =
  QCheck.(
    pair
      (triple (int_range 1 6) bool (int_range 0 2))
      (triple (int_range 0 2) (int_range 1 5) bool))

let case_print ((l5, mobius, c), (w, k, point)) =
  Printf.sprintf "l5=%d %s %s width=%d k=%d %s" l5
    (if mobius then "mobius" else "shamir")
    (Codec.name codecs.(c))
    widths.(w) k
    (if point then "point" else "gaussian")

let params ~l5 ~mobius =
  if mobius then Mobius.mobius ~l5 ~m5:1.8 ~alpha:1.5 ~mass:0.1
  else Mobius.shamir ~l5 ~m5:1.8 ~mass:0.1

let prop_schur_chain_matches_oracle =
  QCheck.Test.make ~name:"Schur chain = slice-by-slice oracle, bitwise" ~count:24
    (QCheck.make ~print:case_print (QCheck.gen case_gen))
    (fun ((l5, mobius, c), (w, k, point)) ->
      let geom = Lazy.force geom and gauge = Lazy.force gauge in
      let recon = codecs.(c) and p = params ~l5 ~mobius in
      let eo = Mobius.of_geometry_eo ~recon p geom gauge in
      let oe = Oracle.of_geometry_eo ~recon p geom gauge in
      let n = Mobius.eo_field_length eo in
      let xs = Array.init k (fun v -> source ~point ~seed:v n) in
      let ys = Array.init k (fun v -> source ~point ~seed:(v + 50) n) in
      let fresh () = Array.init k (fun _ -> Field.create n) in
      let oracle f = Array.map (fun x -> let d = Field.create n in f ~src:x ~dst:d; d) xs in
      let single f =
        let d = Field.create n in
        f ~src:xs.(0) ~dst:d;
        d
      in
      let o_schur = single (Oracle.apply_schur oe) in
      let o_dagger = single (Oracle.apply_schur_dagger oe) in
      let o_normal = oracle (Oracle.apply_schur_normal oe) in
      let o_hop = single (Oracle.hop_eo oe ~to_parity:1) in
      let o_rhs = Oracle.prepare_rhs oe ~rhs_even:ys.(0) ~rhs_odd:xs.(0) in
      let o_even = Oracle.reconstruct_even oe ~rhs_even:ys.(0) ~x_odd:xs.(0) in
      let multi f =
        let ds = fresh () in
        f ~srcs:xs ~dsts:ds;
        ds
      in
      with_pool widths.(w) (fun () ->
          let tail_dot = Field.create n in
          let dot = Mobius.apply_schur_normal_tail eo ~src:xs.(0) ~dst:tail_dot
              ~tail:(Fused.tail ~dot:xs.(0) ()) in
          let checks =
            [
              same_bits o_schur (single (Mobius.apply_schur eo));
              same_bits o_dagger (single (Mobius.apply_schur_dagger eo));
              same_bits o_normal.(0) (single (Mobius.apply_schur_normal eo));
              same_bits o_hop (single (Mobius.hop_eo eo ~to_parity:1));
              same_bits o_normal.(0) tail_dot;
              same_float (Field.dot_re xs.(0) o_normal.(0)) dot;
              same_bits o_rhs (Mobius.prepare_rhs eo ~rhs_even:ys.(0) ~rhs_odd:xs.(0));
              same_bits o_even (Mobius.reconstruct_even eo ~rhs_even:ys.(0) ~x_odd:xs.(0));
            ]
          in
          List.for_all Fun.id checks
          && Array.for_all2 same_bits o_normal
               (multi (Mobius.apply_schur_normal_multi eo))))

(* the tail's xpay form rides the same closing sweep *)
let test_schur_tail_xpay_matches_oracle () =
  let geom = Lazy.force geom and gauge = Lazy.force gauge in
  let p = params ~l5:4 ~mobius:true in
  let eo = Mobius.of_geometry_eo p geom gauge in
  let oe = Oracle.of_geometry_eo ~recon:Codec.Full18 p geom gauge in
  let n = Mobius.eo_field_length eo in
  let x = source ~point:false ~seed:3 n and q = source ~point:false ~seed:4 n in
  let out = source ~point:false ~seed:5 n and o_out = source ~point:false ~seed:5 n in
  let o_dst = Field.create n in
  Oracle.apply_schur_normal oe ~src:x ~dst:o_dst;
  let o_dot = Fused.xpay_dot o_dst 0.5 o_out q in
  let dst = Field.create n in
  let dot =
    Mobius.apply_schur_normal_tail eo ~src:x ~dst ~tail:(Fused.tail ~xpay:(out, 0.5) ~dot:q ())
  in
  Alcotest.(check bool) "dst" true (same_bits o_dst dst);
  Alcotest.(check bool) "xpay output" true (same_bits o_out out);
  Alcotest.(check bool) "dot" true (same_float o_dot dot)

let prop_full_operator_matches_oracle =
  QCheck.Test.make ~name:"full Möbius D, D† = oracle, bitwise" ~count:8
    (QCheck.make ~print:case_print (QCheck.gen case_gen))
    (fun ((l5, mobius, c), (w, _, point)) ->
      let geom = Lattice.Geometry.create [| 4; 4; 2; 4 |] in
      let gauge = Lattice.Gauge.warm geom (Util.Rng.create 77) ~eps:0.4 in
      let recon = codecs.(c) and p = params ~l5 ~mobius in
      let d = Mobius.of_geometry ~recon p geom gauge in
      let od = Oracle.of_geometry ~recon p geom gauge in
      let n = Mobius.field_length d in
      let x = source ~point ~seed:l5 n in
      let run f = let y = Field.create n in f ~src:x ~dst:y; y in
      with_pool widths.(w) (fun () ->
          same_bits (run (Oracle.apply od)) (run (Mobius.apply d))
          && same_bits (run (Oracle.apply_dagger od)) (run (Mobius.apply_dagger d))))

let prop_wilson_matches_oracle =
  QCheck.Test.make ~name:"Wilson hop/apply (single, batched, pooled) = oracle" ~count:12
    (QCheck.make ~print:case_print (QCheck.gen case_gen))
    (fun ((_, _, c), (w, k, point)) ->
      let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
      let gauge = Lattice.Gauge.warm geom (Util.Rng.create 78) ~eps:0.4 in
      let recon = codecs.(c) in
      let wk = Wilson.of_geometry ~recon geom gauge in
      let ok = Oracle.full ~recon geom gauge in
      let n = Lattice.Geometry.volume geom * Wilson.floats_per_site in
      let xs = Array.init k (fun v -> source ~point ~seed:v n) in
      let fresh () = Array.init k (fun _ -> Field.create n) in
      let oracle f = Array.map (fun x -> let d = Field.create n in f ~src:x ~dst:d; d) xs in
      let o_hop = oracle (Oracle.hop ok) in
      let o_apply = oracle (Oracle.wilson_apply ok ~mass:0.1) in
      let o_dagger = oracle (Oracle.wilson_apply_dagger ok ~mass:0.1) in
      let pool = Pool.shared ~domains:widths.(w) in
      let hop_pooled = fresh () and hop = fresh () and hop_multi = fresh () in
      let hop_multi_pooled = fresh () and apply = fresh () and dagger = fresh () in
      Array.iteri (fun v x -> Wilson.hop ~pool ~chunk:37 wk ~src:x ~dst:hop_pooled.(v)) xs;
      Wilson.hop_multi ~pool ~chunk:29 wk ~srcs:xs ~dsts:hop_multi_pooled;
      with_pool widths.(w) (fun () ->
          Array.iteri (fun v x -> Wilson.hop wk ~src:x ~dst:hop.(v)) xs;
          Wilson.hop_multi wk ~srcs:xs ~dsts:hop_multi;
          Array.iteri (fun v src -> Wilson.apply wk ~mass:0.1 ~src ~dst:apply.(v)) xs;
          Array.iteri
            (fun v src -> Wilson.apply_dagger wk ~mass:0.1 ~src ~dst:dagger.(v))
            xs);
      let all o got = Array.for_all2 same_bits o got in
      all o_hop hop && all o_hop hop_pooled && all o_hop hop_multi
      && all o_hop hop_multi_pooled && all o_apply apply && all o_dagger dagger)

let test_shutdown () = Pool.shutdown_shared ()

let suite =
  [
    QCheck_alcotest.to_alcotest prop_schur_chain_matches_oracle;
    Alcotest.test_case "Schur tail xpay = oracle" `Quick
      test_schur_tail_xpay_matches_oracle;
    QCheck_alcotest.to_alcotest prop_full_operator_matches_oracle;
    QCheck_alcotest.to_alcotest prop_wilson_matches_oracle;
    Alcotest.test_case "shutdown shared pools" `Quick test_shutdown;
  ]
