(* Multicore kernel engine tests: pool protocol correctness (chunking,
   nesting, failure propagation), and the central contract — every
   pooled kernel and the pooled Wilson/Mobius hop are bit-identical to
   the serial path for random geometries, with bit-stable reductions.
   Pools come from Pool.shared so the whole file spawns each width
   once. *)

module Pool = Util.Pool
module Field = Linalg.Field

let exact = Alcotest.(check (float 0.))

(* ---- protocol ---- *)

let test_chunks_tile () =
  List.iter
    (fun (n, chunk) ->
      let parts = Pool.chunks ~n ~chunk in
      let covered = ref 0 in
      Array.iteri
        (fun i (lo, hi) ->
          Alcotest.(check int) "contiguous" !covered lo;
          Alcotest.(check bool) "nonempty" true (hi > lo);
          Alcotest.(check bool) "in bounds" true (hi <= n);
          if i < Array.length parts - 1 then
            Alcotest.(check int) "full chunk" chunk (hi - lo);
          covered := hi)
        parts;
      Alcotest.(check int) "covers n" n !covered)
    [ (10, 3); (1, 1); (1024, 1024); (1025, 1024); (7, 100) ];
  Alcotest.(check int) "n=0 empty" 0 (Array.length (Pool.chunks ~n:0 ~chunk:4))

let test_parallel_for_runs_all () =
  List.iter
    (fun domains ->
      let pool = Pool.shared ~domains in
      let hits = Array.make 1000 0 in
      Pool.parallel_for pool ~chunk:17 ~n:1000 (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool)
        (Printf.sprintf "every index once (d=%d)" domains)
        true
        (Array.for_all (fun h -> h = 1) hits))
    [ 1; 2; 3; 4 ]

let test_nested_parallel_for () =
  (* a pooled body launching on the same pool must degrade to inline
     serial, not deadlock *)
  let pool = Pool.shared ~domains:4 in
  let hits = Array.make 64 0 in
  Pool.parallel_for pool ~chunk:8 ~n:8 (fun lo hi ->
      for outer = lo to hi - 1 do
        Pool.parallel_for pool ~chunk:2 ~n:8 (fun l h ->
            for inner = l to h - 1 do
              let i = (outer * 8) + inner in
              hits.(i) <- hits.(i) + 1
            done)
      done);
  Alcotest.(check bool) "all nested indices once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_exception_propagates () =
  let pool = Pool.shared ~domains:2 in
  let raised =
    try
      Pool.parallel_for pool ~chunk:4 ~n:64 (fun lo _ ->
          if lo >= 32 then failwith "chunk blew up");
      false
    with Failure _ -> true
  in
  Alcotest.(check bool) "chunk exception re-raised on caller" true raised;
  (* and the pool still works afterwards *)
  let sum = ref 0 in
  Pool.parallel_for pool ~chunk:16 ~n:64 (fun lo hi ->
      for _ = lo to hi - 1 do
        incr sum
      done);
  ignore !sum

let test_parse_domains () =
  let ok = Alcotest.(check (result int string)) in
  ok "plain" (Ok 4) (Pool.parse_domains "4");
  ok "trimmed" (Ok 2) (Pool.parse_domains " 2 ");
  ok "capped" (Ok Pool.max_domains) (Pool.parse_domains "100000");
  (* rejections must explain themselves: the error names the variable
     and echoes the offending value, so a botched NEUTRON_DOMAINS in a
     job script is a one-line diagnosis *)
  let rejected label input fragment =
    match Pool.parse_domains input with
    | Ok d -> Alcotest.failf "%s: %S accepted as %d" label input d
    | Error msg ->
      let has needle =
        let nl = String.length needle and ml = String.length msg in
        let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
        go 0
      in
      if not (has "NEUTRON_DOMAINS" && has fragment) then
        Alcotest.failf "%s: error %S does not mention %S" label msg fragment
  in
  rejected "zero rejected" "0" "0";
  rejected "negative rejected" "-3" "-3";
  rejected "junk rejected" "fast" "fast";
  rejected "empty rejected" "" ""

(* ---- kernel equivalence: qcheck over random geometries ---- *)

(* random pool geometry: 1-8 domains, random chunk *)
let geometry_gen =
  QCheck.(pair (int_range 1 8) (int_range 1 5000))

let mk_vec seed n =
  let v = Field.create n in
  Field.gaussian (Util.Rng.create seed) v;
  v

let bytes_equal a b = Field.to_array a = Field.to_array b

let prop_elementwise_bit_identical =
  QCheck.Test.make ~name:"pooled axpy/xpay/scale/sub/caxpy bit-identical to serial"
    ~count:40
    QCheck.(pair geometry_gen (int_range 1 3000))
    (fun ((domains, chunk), half) ->
      let n = 2 * half in
      let pool = Pool.shared ~domains in
      let x = mk_vec 1 n in
      let y0 = mk_vec 2 n in
      let run_serial f = f (Pool.shared ~domains:1) in
      let run_pooled f = f pool in
      List.for_all
        (fun kern ->
          let ys = Field.copy y0 and yp = Field.copy y0 in
          run_serial (fun p -> kern p ~chunk:n x ys);
          run_pooled (fun p -> kern p ~chunk x yp);
          bytes_equal ys yp)
        [
          (fun p ~chunk x y -> Field.axpy ~pool:p ~chunk 0.7 x y);
          (fun p ~chunk x y -> Field.xpay ~pool:p ~chunk x (-0.3) y);
          (fun p ~chunk _ y -> Field.scale ~pool:p ~chunk 1.1 y);
          (fun p ~chunk x y -> Field.sub ~pool:p ~chunk x (Field.copy y) y);
          (fun p ~chunk x y -> Field.caxpy ~pool:p ~chunk (0.4, -0.9) x y);
        ])

let prop_reductions_bit_stable =
  QCheck.Test.make
    ~name:"pooled norm2/dot_re/cdot bit-identical to serial and run-to-run"
    ~count:40
    QCheck.(pair geometry_gen (int_range 1 4000))
    (fun ((domains, chunk), half) ->
      let n = 2 * half in
      let pool = Pool.shared ~domains in
      let serial = Pool.shared ~domains:1 in
      let x = mk_vec 3 n and y = mk_vec 4 n in
      let n2_s = Field.norm2 ~pool:serial x in
      let n2_p = Field.norm2 ~pool ~chunk x in
      let n2_p2 = Field.norm2 ~pool ~chunk x in
      let dr_s = Field.dot_re ~pool:serial x y in
      let dr_p = Field.dot_re ~pool ~chunk x y in
      let cd_s = Field.cdot ~pool:serial x y in
      let cd_p = Field.cdot ~pool ~chunk x y in
      let cd_p2 = Field.cdot ~pool ~chunk x y in
      n2_s = n2_p && n2_p = n2_p2 && dr_s = dr_p && cd_s = cd_p && cd_p = cd_p2)

let prop_reductions_geometry_independent =
  (* the canonical blocked combine: the same value for EVERY geometry,
     including the implicit serial path *)
  QCheck.Test.make ~name:"norm2 identical across all pool geometries" ~count:30
    QCheck.(pair geometry_gen (int_range 1 4000))
    (fun ((domains, chunk), half) ->
      let n = 2 * half in
      let x = mk_vec 5 n in
      Field.norm2 x = Field.norm2 ~pool:(Pool.shared ~domains) ~chunk x)

let prop_wilson_hop_bit_identical =
  QCheck.Test.make ~name:"pooled Wilson hop bit-identical to serial" ~count:10
    geometry_gen
    (fun (domains, chunk) ->
      let geom = Lattice.Geometry.create [| 4; 4; 2; 4 |] in
      let gauge = Lattice.Gauge.warm geom (Util.Rng.create 6) ~eps:0.3 in
      let w = Dirac.Wilson.of_geometry geom gauge in
      let n = Lattice.Geometry.volume geom * Dirac.Wilson.floats_per_site in
      let src = mk_vec 7 n in
      let ds = Field.create n and dp = Field.create n in
      Dirac.Wilson.hop_sites w ~src ~dst:ds ();
      Dirac.Wilson.hop ~pool:(Pool.shared ~domains)
        ~chunk:(1 + (chunk mod Lattice.Geometry.volume geom))
        w ~src ~dst:dp;
      bytes_equal ds dp)

let prop_mobius_hop_bit_identical =
  (* the 5d operator dispatches on the default pool: route it through
     every width and compare against the serial default *)
  QCheck.Test.make ~name:"pooled Mobius apply bit-identical to serial" ~count:6
    QCheck.(int_range 1 8)
    (fun domains ->
      let geom = Lattice.Geometry.create [| 4; 4; 2; 2 |] in
      let gauge = Lattice.Gauge.warm geom (Util.Rng.create 8) ~eps:0.3 in
      let p = Dirac.Mobius.mobius ~l5:8 ~m5:1.2 ~alpha:1.5 ~mass:0.05 in
      let op = Dirac.Mobius.of_geometry p geom gauge in
      let n = Dirac.Mobius.field_length op in
      let src = mk_vec 9 n in
      let ds = Field.create n and dp = Field.create n in
      let saved = Pool.get_default () in
      Fun.protect
        ~finally:(fun () -> Pool.set_default saved)
        (fun () ->
          Pool.set_default (Pool.shared ~domains:1);
          Dirac.Mobius.apply op ~src ~dst:ds;
          Pool.set_default (Pool.shared ~domains);
          Dirac.Mobius.apply op ~src ~dst:dp);
      bytes_equal ds dp)

let test_smear_contract_pooled_identical () =
  (* Smear.step and Contract.pion also dispatch on the default pool *)
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  let gauge = Lattice.Gauge.warm geom (Util.Rng.create 15) ~eps:0.3 in
  let saved = Pool.get_default () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default saved)
    (fun () ->
      Pool.set_default (Pool.shared ~domains:1);
      let s_serial = Lattice.Smear.step ~rho:0.08 gauge in
      Pool.set_default (Pool.shared ~domains:4);
      let s_pooled = Lattice.Smear.step ~rho:0.08 gauge in
      exact "smeared links bit-identical" 0.
        (Field.max_abs_diff
           (Lattice.Gauge.data s_serial)
           (Lattice.Gauge.data s_pooled)))

let test_sanitize_on_pooled_path () =
  (* the NaN trap must keep firing when the kernel runs pooled *)
  let n = 4096 in
  let x = mk_vec 16 n in
  let y = mk_vec 17 n in
  Bigarray.Array1.set x 1234 Float.nan;
  let trapped =
    try
      Field.Sanitize.scoped (fun () ->
          Field.axpy ~pool:(Pool.shared ~domains:4) ~chunk:256 2.0 x y);
      false
    with Field.Sanitize.Non_finite ("Field.axpy", _, _) -> true
  in
  Alcotest.(check bool) "Non_finite raised on pooled axpy" true trapped

let test_chunkless_reduction_forks () =
  (* a reduction without a chunk takes the default on its floats, in
     whole blocks: Mixed's 8^4 even/odd field (196,608 floats, 96
     blocks) forks into several jobs on a 2-lane default pool, and
     its value is the serial one to the bit *)
  let n = 196_608 in
  let x = mk_vec 18 n in
  let serial = Field.norm2 ~pool:(Pool.shared ~domains:1) x in
  let saved = Pool.get_default () in
  let value, events =
    Fun.protect
      ~finally:(fun () -> Pool.set_default saved)
      (fun () ->
        Pool.set_default (Pool.shared ~domains:2);
        Util.Prof.record (fun () -> Field.norm2 x))
  in
  (match events with
  | [ Util.Prof.Launch { Util.Prof.geometry = Some (lanes, chunk); _ } ] ->
    Alcotest.(check int) "two lanes" 2 lanes;
    let jobs = Array.length (Pool.chunks ~n ~chunk) in
    Alcotest.(check bool) (Printf.sprintf "%d jobs of %d floats" jobs chunk) true (jobs > 1)
  | _ -> Alcotest.fail "expected one pooled launch");
  Alcotest.(check int64) "bitwise the serial norm"
    (Int64.bits_of_float serial) (Int64.bits_of_float value)

let suite =
  [
    Alcotest.test_case "chunks tile [0,n)" `Quick test_chunks_tile;
    Alcotest.test_case "parallel_for covers" `Quick test_parallel_for_runs_all;
    Alcotest.test_case "nested launch inlines" `Quick test_nested_parallel_for;
    Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
    Alcotest.test_case "NEUTRON_DOMAINS parser" `Quick test_parse_domains;
    QCheck_alcotest.to_alcotest prop_elementwise_bit_identical;
    QCheck_alcotest.to_alcotest prop_reductions_bit_stable;
    QCheck_alcotest.to_alcotest prop_reductions_geometry_independent;
    QCheck_alcotest.to_alcotest prop_wilson_hop_bit_identical;
    QCheck_alcotest.to_alcotest prop_mobius_hop_bit_identical;
    Alcotest.test_case "smear pooled identical" `Quick
      test_smear_contract_pooled_identical;
    Alcotest.test_case "sanitize on pooled path" `Quick
      test_sanitize_on_pooled_path;
    Alcotest.test_case "chunkless reduction forks" `Quick test_chunkless_reduction_forks;
    (* last on purpose: leaving idle worker domains alive would tax
       every stop-the-world GC in the suites that run after this one *)
    Alcotest.test_case "shutdown shared registry" `Quick (fun () ->
        Pool.shutdown_shared ();
        let sum = ref 0. in
        Pool.parallel_for (Pool.shared ~domains:2) ~chunk:8 ~n:32 (fun lo hi ->
            for i = lo to hi - 1 do
              sum := !sum +. float_of_int i
            done);
        ignore !sum;
        Pool.shutdown_shared ());
  ]
