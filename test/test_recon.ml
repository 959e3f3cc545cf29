(* Compressed gauge links (reconstruct-12/8) and compressed halo
   payloads: codec round-trips on Haar-random links within the
   documented bounds, the packed-store hop against the full18 hop,
   per-codec bit-identity across pool geometries, the det-sign plane
   on antiperiodic-time links, the Recon8 degenerate guard, the recon
   checker rules and seeded fixtures, the Perf_model recon/compress
   pricing, the codec tuning axis labels and the Comm compressed-wire
   accounting. *)

module Field = Linalg.Field
module Su3 = Linalg.Su3
module Codec = Linalg.Su3_codec
module Recon = Lattice.Recon
module Gauge = Lattice.Gauge
module Geometry = Lattice.Geometry
module Domain = Lattice.Domain
module Wilson = Dirac.Wilson
module Comm = Vrank.Comm
module PM = Machine.Perf_model

let rng () = Util.Rng.create 20260909

let check_bits name (a : Field.t) (b : Field.t) =
  Alcotest.(check (float 0.)) name 0. (Field.max_abs_diff a b)

let batch_of r k n =
  Array.init k (fun _ ->
      let v = Field.create n in
      Field.gaussian r v;
      v)

(* ---------- codec round-trips ---------- *)

let prop_round_trip codec =
  let bound = Codec.round_trip_bound codec in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: Haar round-trip within %.0e" (Codec.name codec)
         bound)
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let u = Su3.random (Util.Rng.create seed) in
      Codec.round_trip_error codec u <= bound)

let prop_full18_exact =
  QCheck.Test.make ~name:"full18: round-trip is bit-exact" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let u = Su3.random (Util.Rng.create seed) in
      Codec.round_trip_error Codec.Full18 u = 0.)

(* the sign plane: det = −1 links (antiperiodic time) must survive the
   packed store on the whole field *)
let test_sign_plane_round_trip () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let gauge = Gauge.with_antiperiodic_time (Gauge.random geom (rng ())) in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Codec.name c ^ " antiperiodic field round-trips")
        true
        (Recon.max_round_trip_error c gauge <= Codec.round_trip_bound c))
    Codec.all

let test_recon8_degenerate_on_unit () =
  let geom = Geometry.create [| 2; 2; 2; 2 |] in
  (match Recon.pack Codec.Recon8 (Gauge.unit geom) with
  | exception Codec.Degenerate _ -> ()
  | (_ : Recon.t) -> Alcotest.fail "recon8 packed a unit field");
  (* the other codecs take the cold field fine *)
  List.iter
    (fun c -> ignore (Recon.pack c (Gauge.unit geom) : Recon.t))
    [ Codec.Full18; Codec.Recon12 ]

(* ---------- hop through the packed store ---------- *)

(* a full18 store is bit-copies: the hop must equal the seed path
   exactly; the lossy codecs must land within a small multiple of the
   per-link round-trip bound (8 link applications per site) *)
let test_hop_matches_full18 () =
  let geom = Geometry.create [| 4; 2; 2; 4 |] in
  let gauge = Gauge.random geom (rng ()) in
  let n = Geometry.volume geom * Wilson.floats_per_site in
  let src = Field.create n in
  Field.gaussian (rng ()) src;
  let hop_at c =
    let w = Wilson.of_geometry ~recon:c geom gauge in
    let dst = Field.create n in
    Wilson.hop w ~src ~dst;
    dst
  in
  let d_seed = Field.create n in
  Wilson.hop (Wilson.of_geometry geom gauge) ~src ~dst:d_seed;
  check_bits "full18 hop = seed hop" d_seed (hop_at Codec.Full18);
  List.iter
    (fun c ->
      let tol = 1e3 *. Codec.round_trip_bound c in
      let diff = Field.max_abs_diff d_seed (hop_at c) in
      Alcotest.(check bool)
        (Printf.sprintf "%s hop within %.0e (got %.3g)" (Codec.name c) tol
           diff)
        true (diff <= tol))
    [ Codec.Recon12; Codec.Recon8 ]

(* for a FIXED codec the decode is pure per-link: every pool geometry
   must produce bit-identical batched hops *)
let test_hop_bit_identical_across_pools () =
  let geom = Geometry.create [| 4; 2; 2; 4 |] in
  let gauge = Gauge.random geom (rng ()) in
  let n = Geometry.volume geom * Wilson.floats_per_site in
  let k = 3 in
  List.iter
    (fun c ->
      let w = Wilson.of_geometry ~recon:c geom gauge in
      let srcs = batch_of (rng ()) k n in
      let refs = Array.init k (fun _ -> Field.create n) in
      Wilson.hop_multi ~pool:(Util.Pool.shared ~domains:1) w ~srcs ~dsts:refs;
      List.iter
        (fun (d, chunk) ->
          let dsts = Array.init k (fun _ -> Field.create n) in
          Wilson.hop_multi ~pool:(Util.Pool.shared ~domains:d)
            ~chunk w ~srcs ~dsts;
          Array.iteri
            (fun i dst ->
              check_bits
                (Printf.sprintf "%s d%d_c%d rhs %d" (Codec.name c) d chunk i)
                refs.(i) dst)
            dsts)
        [ (2, 7); (4, 33) ])
    Codec.all

(* ---------- recon checker ---------- *)

let fired rule ds =
  List.exists (fun (d : Check.Diagnostic.t) -> d.Check.Diagnostic.rule = rule) ds

let test_recon_check_rules () =
  let module R = Check.Recon_check in
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let g = Gauge.random geom (rng ()) in
  Gauge.reunitarize g;
  List.iter
    (fun c ->
      Alcotest.(check int)
        (Codec.name c ^ " clean gauge audits clean")
        0
        (List.length (R.verify_gauge ~recon:c g)))
    Codec.all;
  (* full18 copies bits: even a grossly non-unitary field is fine *)
  let bad = Gauge.random geom (rng ()) in
  let d = Gauge.data bad in
  for e = 0 to 17 do
    Bigarray.Array1.set d e (1.3 *. Bigarray.Array1.get d e)
  done;
  Alcotest.(check int) "full18 tolerates non-unitary links" 0
    (List.length (R.verify_gauge ~recon:Codec.Full18 bad));
  Alcotest.(check bool) "recon12 flags them" true
    (fired "RECON001" (R.verify_gauge ~recon:Codec.Recon12 bad))

let test_recon_fixtures_fire () =
  List.iter
    (fun (name, rule) ->
      match Check.Fixtures.find name with
      | None -> Alcotest.fail (name ^ " fixture missing")
      | Some f ->
        Alcotest.(check string) (name ^ " expects") rule f.Check.Fixtures.expect;
        Alcotest.(check bool) (name ^ " fires") true
          (fired rule (f.Check.Fixtures.run ())))
    [ ("recon-nonunitary-link", "RECON001") ]

(* ---------- plan IR: Su3 precision tag ---------- *)

let test_recon_ir () =
  let module PI = Check.Plan_ir in
  let module PC = Check.Plan_check in
  (* printer/parser round-trip of the codec precision *)
  List.iter
    (fun c ->
      let s = PI.string_of_precision (PI.Su3 c) in
      Alcotest.(check string) "su3 precision prints" ("su3:" ^ Codec.name c) s)
    Codec.all;
  (* the batched hop on a recon12 link store, built from the IR's
     constructors: a packed store is no field a recording could name,
     so the catalog has no recon plan *)
  let srcs = List.init 4 (Printf.sprintf "src%d") in
  let dsts = List.init 4 (Printf.sprintf "dst%d") in
  let p =
    PI.plan ~n:(256 * 24)
      ~buffers:
        (PI.buffer ~prec:(PI.Su3 Codec.Recon12)
           ~range:(max 1e-30 (Codec.round_trip_bound Codec.Recon12), 1.)
           "u"
        :: List.map (fun b -> PI.buffer ~prec:PI.Double b) (srcs @ dsts))
      ~steps:
        [
          PI.Launch
            (PI.kernel ~sweeps:0
               ~args:
                 (("u", PI.Read)
                 :: (List.map (fun s -> (s, PI.Read)) srcs
                    @ List.map (fun d -> (d, PI.Write)) dsts))
               "Wilson.hop_multi");
        ]
      "wilson-hop-recon"
  in
  Alcotest.(check int) "wilson-hop-recon plan clean" 0
    (List.length (PC.verify p));
  Alcotest.(check bool) "no recon plan in the catalog" true
    (Check.Plan_record.find "wilson-hop-recon" = None);
  (* a quantize step against the compressed link store is PREC004 *)
  let bad =
    { p with PI.steps = PI.Quantize { qbuf = "u"; qblock = 24 } :: p.PI.steps }
  in
  Alcotest.(check bool) "PREC004 on quantized su3 buffer" true
    (fired "PREC004" (PC.verify bad))

(* ---------- Perf_model pricing ---------- *)

let test_recon_pricing () =
  List.iter
    (fun (c, bytes) ->
      Alcotest.(check (float 0.))
        (Codec.name c ^ " link bytes/site")
        bytes
        (PM.link_bytes_per_site_recon ~recon:c))
    [ (Codec.Full18, 1152.); (Codec.Recon12, 768.); (Codec.Recon8, 512.) ];
  (* full18 recovers the plain mrhs pricing at every width *)
  List.iter
    (fun k ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "full18 k=%d = mrhs" k)
        (PM.mrhs_bytes_per_site ~k)
        (PM.mrhs_bytes_per_site_recon ~recon:Codec.Full18 ~k);
      Alcotest.(check (float 0.))
        (Printf.sprintf "ratio consistency k=%d" k)
        (PM.mrhs_bytes_per_site_recon ~recon:Codec.Recon8 ~k
        /. PM.mrhs_bytes_per_site ~k:1)
        (PM.recon_traffic_ratio ~recon:Codec.Recon8 ~k))
    [ 1; 2; 4; 8 ];
  (* compression strictly reduces the composed stream *)
  Alcotest.(check bool) "recon8 < recon12 < full18 at k=4" true
    (PM.mrhs_bytes_per_site_recon ~recon:Codec.Recon8 ~k:4
     < PM.mrhs_bytes_per_site_recon ~recon:Codec.Recon12 ~k:4
    && PM.mrhs_bytes_per_site_recon ~recon:Codec.Recon12 ~k:4
       < PM.mrhs_bytes_per_site_recon ~recon:Codec.Full18 ~k:4);
  (match PM.mrhs_bytes_per_site_recon ~recon:Codec.Recon12 ~k:0 with
  | exception Invalid_argument _ -> ()
  | (_ : float) -> Alcotest.fail "k=0 accepted")

let test_compress_breakdown () =
  let module Spec = Machine.Spec in
  let module Policy = Machine.Policy in
  let p = PM.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20 in
  let fine =
    { Policy.transfer = Policy.Staged_mpi; granularity = Policy.Fine }
  in
  let at compress =
    match
      PM.stencil_breakdown ~compress Spec.sierra fine p ~n_gpus:16
    with
    | None -> Alcotest.fail "no grid"
    | Some b -> b
  in
  let legacy =
    Option.get (PM.stencil_breakdown Spec.sierra fine p ~n_gpus:16)
  in
  let comp = at true and unc = at false in
  (* omitted = calibrated numbers, untouched by the new axis *)
  Alcotest.(check (float 0.)) "legacy halo bytes unchanged"
    legacy.PM.halo_bytes_inter comp.PM.halo_bytes_inter;
  (* uncompressed double wire carries 4x the compressed face bytes *)
  Alcotest.(check (float 1e-6)) "double wire = 4x compressed"
    (4. *. comp.PM.halo_bytes_inter)
    unc.PM.halo_bytes_inter;
  (* the codec passes are charged into t_copy *)
  Alcotest.(check bool) "codec cost priced" true
    (comp.PM.t_copy > legacy.PM.t_copy);
  (* zero-copy has no staging buffer to compress *)
  let zc = { Policy.transfer = Policy.Zero_copy; granularity = Policy.Fine } in
  match
    PM.stencil_breakdown ~transport:Machine.Transport.Zero_copy ~compress:true
      Spec.sierra zc p ~n_gpus:16
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero-copy + compress accepted"

(* ---------- the codec tuning axis ---------- *)

let test_recon_space_and_labels () =
  let module V = Autotune.Variants in
  Alcotest.(check string) "pooled label" "unfused_recon12_k4_r0_d2_c4096"
    (V.label
       { V.baseline with recon = Codec.Recon12; k = 4; geometry = Some (2, 4096) });
  Alcotest.(check string) "serial label" "unfused_recon8_k2_r0_serial"
    (V.label { V.baseline with recon = Codec.Recon8; k = 2 });
  let space =
    V.space ~codecs:Codec.all ~widths:[ 1; 2; 4; 8 ]
      ~geometries:(V.pool_geometries ~chunk_floor:16 ~n:4096 ())
      ()
  in
  let labels = List.map V.label space in
  Alcotest.(check string) "uncompressed serial baseline first"
    "unfused_full18_k1_r0_serial" (List.hd labels);
  Alcotest.(check int) "labels distinct"
    (List.length labels)
    (List.length (List.sort_uniq compare labels));
  (* every codec appears: the space really crosses the axis *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Codec.name c ^ " in space")
        true
        (List.exists (fun (pl : V.launch) -> pl.recon = c) space))
    Codec.all

(* ---------- compressed halo payloads ---------- *)

let test_compressed_halo_exchange () =
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let dom = Domain.create geom [| 2; 2; 1; 1 |] in
  let dof = 24 in
  let comm_u = Comm.create dom ~dof in
  let comm_c = Comm.create ~compress:true dom ~dof in
  Alcotest.(check bool) "compress recorded" true (Comm.compress comm_c);
  let global = Field.create (Geometry.volume geom * dof) in
  Field.gaussian (rng ()) global;
  let fu = Comm.create_fields comm_u and fc = Comm.create_fields comm_c in
  Comm.scatter comm_u global fu;
  Comm.scatter comm_c global fc;
  Comm.halo_exchange comm_u fu;
  Comm.halo_exchange comm_c fc;
  (* ghosts land as half-codec round-trips of the same data: close to
     the exact wire, but not bit-equal (the payload really was
     compressed) *)
  let worst = ref 0. in
  Array.iteri
    (fun r f -> worst := max !worst (Field.max_abs_diff f fu.(r)))
    fc;
  Alcotest.(check bool)
    (Printf.sprintf "ghosts within half-codec error (got %.3g)" !worst)
    true
    (!worst > 0. && !worst < 1e-2);
  (* accounting: every message compressed, strictly fewer wire bytes *)
  let su = Comm.stats comm_u and sc = Comm.stats comm_c in
  Alcotest.(check int) "all messages compressed" sc.Comm.messages
    sc.Comm.compressed_messages;
  Alcotest.(check int) "no compressed messages uncompressed" 0
    su.Comm.compressed_messages;
  Alcotest.(check bool)
    (Printf.sprintf "wire bytes drop (%.0f < %.0f)" sc.Comm.bytes
       su.Comm.bytes)
    true
    (sc.Comm.bytes < su.Comm.bytes);
  (* zero-copy aliases the sender's field: nothing to compress *)
  match Comm.create ~transport:Comm.Zero_copy ~compress:true dom ~dof with
  | exception Invalid_argument _ -> ()
  | (_ : Comm.t) -> Alcotest.fail "zero-copy + compress accepted"

let test_shutdown () = Util.Pool.shutdown_shared ()

let suite =
  [
    QCheck_alcotest.to_alcotest (prop_round_trip Codec.Recon12);
    QCheck_alcotest.to_alcotest (prop_round_trip Codec.Recon8);
    QCheck_alcotest.to_alcotest prop_full18_exact;
    Alcotest.test_case "recon: antiperiodic sign plane round-trips" `Quick
      test_sign_plane_round_trip;
    Alcotest.test_case "recon8: degenerate on the unit field" `Quick
      test_recon8_degenerate_on_unit;
    Alcotest.test_case "wilson: packed-store hop vs full18" `Quick
      test_hop_matches_full18;
    Alcotest.test_case "wilson: per-codec bit-identity across pools" `Quick
      test_hop_bit_identical_across_pools;
    Alcotest.test_case "recon_check: rules fire, clean plans pass" `Quick
      test_recon_check_rules;
    Alcotest.test_case "recon_check: seeded fixtures fire" `Quick
      test_recon_fixtures_fire;
    Alcotest.test_case "plan: su3 precision tag and PREC004" `Quick
      test_recon_ir;
    Alcotest.test_case "perf_model: recon link-byte pricing" `Quick
      test_recon_pricing;
    Alcotest.test_case "perf_model: compressed-wire breakdown" `Quick
      test_compress_breakdown;
    Alcotest.test_case "variants: codec axis labels and space" `Quick
      test_recon_space_and_labels;
    Alcotest.test_case "comm: compressed halo payloads" `Quick
      test_compressed_halo_exchange;
    Alcotest.test_case "pool shutdown" `Quick test_shutdown;
  ]
