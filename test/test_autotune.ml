(* Tests for Autotune: the win rule, caching semantics, persistence,
   the launch spaces, and communication-policy tuning. *)

module Tuner = Autotune.Tuner
module Variants = Autotune.Variants
module Comm_tune = Autotune.Comm_tune
module Field = Linalg.Field

let test_tuner_caches () =
  let t = Tuner.create ~repeats:1 () in
  let calls = ref 0 in
  let candidates =
    [
      Tuner.candidate "a" (fun () -> incr calls);
      Tuner.candidate "b" (fun () -> incr calls);
    ]
  in
  let w1 = Tuner.tune t ~kernel:"k" ~signature:"v1" candidates in
  let calls_after_first = !calls in
  let w2 = Tuner.tune t ~kernel:"k" ~signature:"v1" candidates in
  Alcotest.(check string) "same winner" w1 w2;
  Alcotest.(check int) "no re-measurement" calls_after_first !calls;
  Alcotest.(check int) "one search" 1 (Tuner.tune_count t);
  Alcotest.(check int) "one hit" 1 (Tuner.hit_count t)

let test_tuner_distinguishes_signatures () =
  let t = Tuner.create ~repeats:1 () in
  let candidates = [ Tuner.candidate "only" (fun () -> ()) ] in
  ignore (Tuner.tune t ~kernel:"k" ~signature:"v1" candidates);
  ignore (Tuner.tune t ~kernel:"k" ~signature:"v2" candidates);
  Alcotest.(check int) "two searches" 2 (Tuner.tune_count t)

let test_tuner_picks_faster () =
  (* the slow baseline spins until 10 ms of wall clock have passed: a
     busy host can delay a sample's end by one preemption, but cannot
     stretch the sample in proportion to the load, so its quartile
     spread stays under its gap to the no-op *)
  let t = Tuner.create ~repeats:5 () in
  let slow () =
    let stop = Util.Clock.now_s () +. 0.01 in
    while Util.Clock.now_s () < stop do
      ()
    done
  in
  let fast () = () in
  let w =
    Tuner.tune t ~kernel:"speed" ~signature:"x"
      [ Tuner.candidate "slow" slow; Tuner.candidate "fast" fast ]
  in
  Alcotest.(check string) "fast wins" "fast" w

let test_tuner_pick () =
  (* baseline median 1.0 with q3 - q1 = 0.05 (linear quartiles) *)
  let base = ("base", [| 0.95; 1.0; 1.05 |]) in
  Alcotest.(check string) "1% faster inside a 5% spread keeps the baseline"
    "base"
    (fst (Tuner.pick [ base; ("cand", [| 0.98; 0.99; 1.0 |]) ]));
  Alcotest.(check string) "20% faster wins" "cand"
    (fst (Tuner.pick [ base; ("cand", [| 0.79; 0.8; 0.81 |]) ]));
  Alcotest.(check (pair string (float 0.)))
    "repeats = 1: the strictly fastest wins" ("cand", 0.999)
    (Tuner.pick [ ("base", [| 1.0 |]); ("slow", [| 1.5 |]); ("cand", [| 0.999 |]) ]);
  Alcotest.(check string) "repeats = 1: a tie keeps the baseline" "base"
    (fst (Tuner.pick [ ("base", [| 1.0 |]); ("cand", [| 1.0 |]) ]))

let test_tuner_save_load () =
  let t = Tuner.create ~repeats:1 () in
  ignore
    (Tuner.tune t ~kernel:"k1" ~signature:"s1"
       [ Tuner.candidate "w" (fun () -> ()) ]);
  let path = Filename.temp_file "tunecache" ".tsv" in
  Tuner.save t path;
  let t2 = Tuner.create () in
  Tuner.load t2 path;
  Sys.remove path;
  (match Tuner.lookup t2 ~kernel:"k1" ~signature:"s1" with
  | Some e -> Alcotest.(check string) "winner persisted" "w" e.Tuner.winner
  | None -> Alcotest.fail "entry lost");
  (* a lookup over candidates that still contain the persisted winner
     hits the cache, no re-search *)
  ignore
    (Tuner.tune t2 ~kernel:"k1" ~signature:"s1"
       [ Tuner.candidate "w" (fun () -> ()) ]);
  Alcotest.(check int) "no search after load" 0 (Tuner.tune_count t2);
  (* but a persisted winner absent from the live candidates — a stale
     tunecache from before a variant-space change — is refused: the
     search re-runs instead of serving a label nothing can execute *)
  let w' =
    Tuner.tune t2 ~kernel:"k1" ~signature:"s1"
      [ Tuner.candidate "other" (fun () -> ()) ]
  in
  Alcotest.(check string) "stale winner re-tuned" "other" w';
  Alcotest.(check int) "stale entry forced a search" 1 (Tuner.tune_count t2)

(* Fault injection: a damaged tunecache raises a typed error naming
   the file and the line, never a skipped entry or a bare Failure. The
   damage sits on line 2, after one good entry. *)
let expect_corrupt what damaged =
  let text = "k1\ts1\tw\t1.000000000e-03\t4\t1700000000.000\n" ^ damaged in
  let path = Filename.temp_file "tunecache" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      match Tuner.load (Tuner.create ()) path with
      | () -> Alcotest.failf "%s loaded silently" what
      | exception Tuner.Corrupt { path = p; line; _ } ->
        Alcotest.(check string) (what ^ " names the file") path p;
        Alcotest.(check int) (what ^ " names the line") 2 line)

let test_tunecache_truncated () =
  expect_corrupt "truncated last line" "k2\ts2\tw\t1.0e-03"

let test_tunecache_non_numeric () =
  expect_corrupt "non-numeric time_s" "k2\ts2\tw\tfast\t4\t1700000000.000\n"

let test_tune_hop_returns_valid_plan () =
  let tuner = Tuner.create ~repeats:1 () in
  let geom = Lattice.Geometry.create [| 4; 4; 2; 2 |] in
  let gauge = Lattice.Gauge.unit geom in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let n = Lattice.Geometry.volume geom * 24 in
  let plan =
    Variants.tune_hop tuner [ w ] ~srcs:[| Field.create n |]
      ~dsts:[| Field.create n |] ~signature:"4422"
  in
  Alcotest.(check string) "single-RHS full18 plan" (Variants.label Variants.baseline)
    (Variants.label { plan with geometry = None });
  match plan.geometry with
  | None -> ()
  | Some (domains, chunk) ->
    Alcotest.(check bool) "sane geometry" true (domains >= 2 && chunk >= 1)

let test_pool_geometries_shape () =
  let geoms = Variants.pool_geometries ~max_domains:8 ~n:(1 lsl 20) () in
  Alcotest.(check bool) "non-empty with 8 lanes" true (geoms <> []);
  List.iter
    (fun (d, c) ->
      Alcotest.(check bool) "domains in [2, cap]" true (d >= 2 && d <= 8);
      Alcotest.(check bool) "power of two" true (d land (d - 1) = 0);
      Alcotest.(check bool) "chunk above floor" true (c >= 1024))
    geoms;
  let floored = Variants.pool_geometries ~max_domains:4 ~chunk_floor:64 ~n:512 () in
  List.iter
    (fun (_, c) -> Alcotest.(check bool) "custom floor" true (c >= 64))
    floored;
  Alcotest.(check (list (pair int int))) "empty on single-core cap" []
    (Variants.pool_geometries ~max_domains:1 ~n:(1 lsl 20) ())

(* The executed plan is the tuned plan, for every kernel family at toy
   sizes: the labels of the space are pairwise distinct, the baseline
   leads it, the returned launch is in it, and the cached winner is
   that launch's label. The spaces are rebuilt from the axes each
   family documents; the cached candidate count pins them to what the
   tuner searched. *)
let test_executed_is_tuned () =
  let dmax = 4 in
  let tuner = Tuner.create ~repeats:1 () in
  let check_family kernel space (launch : Variants.launch) =
    let labels = List.map Variants.label space in
    Alcotest.(check int) (kernel ^ " labels distinct") (List.length labels)
      (List.length (List.sort_uniq compare labels));
    Alcotest.(check bool) (kernel ^ " baseline first") true
      (List.hd space = Variants.baseline);
    Alcotest.(check bool) (kernel ^ " returned plan in space") true
      (List.mem launch space);
    match
      List.filter (fun (e : Tuner.entry) -> e.Tuner.kernel = kernel)
        (Tuner.entries tuner)
    with
    | [ e ] ->
      Alcotest.(check string) (kernel ^ " cached winner is the returned plan")
        (Variants.label launch) e.Tuner.winner;
      Alcotest.(check int) (kernel ^ " whole space searched")
        (List.length space) e.Tuner.candidates_tried
    | es -> Alcotest.failf "%s: %d cache entries" kernel (List.length es)
  in
  let geom = Lattice.Geometry.create [| 4; 4; 2; 2 |] in
  let gauge = Lattice.Gauge.random geom (Util.Rng.create 9) in
  let codecs = Linalg.Su3_codec.[ Full18; Recon12 ] in
  let ops =
    List.map (fun recon -> Dirac.Wilson.of_geometry ~recon geom gauge) codecs
  in
  let sites = Lattice.Geometry.volume geom in
  let mk seed n =
    let v = Field.create n in
    Field.gaussian (Util.Rng.create seed) v;
    v
  in
  let srcs = [| mk 10 (sites * 24); mk 11 (sites * 24) |] in
  let dsts = Array.init 2 (fun _ -> Field.create (sites * 24)) in
  check_family "wilson_hop"
    (Variants.space ~codecs ~widths:[ 1; 2 ]
       ~geometries:
         (Variants.pool_geometries ~max_domains:dmax ~chunk_floor:16 ~n:sites ())
       ())
    (Variants.tune_hop ~max_domains:dmax tuner ops ~srcs ~dsts ~signature:"toy");
  let n = 4096 in
  let geometries = Variants.pool_geometries ~max_domains:dmax ~n () in
  check_family "axpy"
    (Variants.space ~geometries ())
    (Variants.tune_axpy ~max_domains:dmax tuner ~n);
  check_family "cg_blas1"
    (Variants.space ~modes:Linalg.Fused.[ Unfused; Fused; Tail_fused ]
       ~geometries ())
    (Variants.tune_fusion ~max_domains:dmax tuner ~n);
  let n = 64 in
  let apply (x : Field.t) (y : Field.t) =
    for i = 0 to n - 1 do
      y.{i} <- (0.05 +. float_of_int i) *. x.{i}
    done
  in
  check_family "cg_deflate"
    (Variants.space ~ranks:[ 0; 2; 4; 8 ] ())
    (Variants.tune_deflation tuner ~apply ~bs:[| mk 12 n; mk 13 n |]
       ~signature:"toy")

let test_tune_refuses_bad_space () =
  (* an empty space has no baseline, and two launches with one label
     would make the cached winner ambiguous: both are caller bugs and
     raise before anything is timed or cached *)
  let tuner = Tuner.create ~repeats:1 () in
  let runs = ref 0 in
  let tune space =
    Variants.tune ~max_domains:2 tuner ~kernel:"bad" ~signature:"s"
      ~space:(fun ~dmax:_ -> space)
      (fun _ -> incr runs)
  in
  Alcotest.check_raises "empty space"
    (Invalid_argument "Variants.tune: empty space") (fun () -> ignore (tune []));
  Alcotest.check_raises "duplicate launches"
    (Invalid_argument "Variants.tune: duplicate launches in the space")
    (fun () -> ignore (tune Variants.[ baseline; baseline ]));
  Alcotest.(check int) "nothing timed" 0 !runs;
  Alcotest.(check int) "nothing cached" 0 (List.length (Tuner.entries tuner))

let test_tune_axpy_key_isolation () =
  (* the cache-key audit: winners must never be served across vector
     lengths or machine widths, because the pooled geometry that wins
     at one shape loses at another *)
  let tuner = Tuner.create ~repeats:1 () in
  ignore (Variants.tune_axpy ~max_domains:2 tuner ~n:4096);
  Alcotest.(check int) "first shape searches" 1 (Tuner.tune_count tuner);
  ignore (Variants.tune_axpy ~max_domains:2 tuner ~n:65536);
  Alcotest.(check int) "different n searches again" 2 (Tuner.tune_count tuner);
  ignore (Variants.tune_axpy ~max_domains:4 tuner ~n:65536);
  Alcotest.(check int) "different dmax searches again" 3
    (Tuner.tune_count tuner);
  ignore (Variants.tune_axpy ~max_domains:2 tuner ~n:4096);
  Alcotest.(check int) "repeat shape served from cache" 3
    (Tuner.tune_count tuner);
  Alcotest.(check int) "cache hit recorded" 1 (Tuner.hit_count tuner)

let test_tune_hop_key_isolation () =
  (* identical caller signature, different lattice: the embedded
     ":n<sites>:dmax<cap>" suffix must force a fresh search *)
  let tuner = Tuner.create ~repeats:1 () in
  let tune dims =
    let geom = Lattice.Geometry.create dims in
    let gauge = Lattice.Gauge.unit geom in
    let w = Dirac.Wilson.of_geometry geom gauge in
    let n = Lattice.Geometry.volume geom * 24 in
    let srcs = [| Field.create n |] and dsts = [| Field.create n |] in
    ignore (Variants.tune_hop tuner [ w ] ~srcs ~dsts ~signature:"same")
  in
  tune [| 4; 4; 2; 2 |];
  tune [| 4; 4; 4; 2 |];
  Alcotest.(check int) "two volumes, two searches" 2 (Tuner.tune_count tuner);
  tune [| 4; 4; 2; 2 |];
  Alcotest.(check int) "repeat volume cached" 2 (Tuner.tune_count tuner)

let test_comm_tune_caches () =
  let ct = Comm_tune.create () in
  let p = Machine.Perf_model.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20 in
  let r1 = Comm_tune.pick ct Machine.Spec.sierra p ~n_gpus:16 in
  let r2 = Comm_tune.pick ct Machine.Spec.sierra p ~n_gpus:16 in
  Alcotest.(check bool) "found" true (r1 <> None && r2 <> None);
  Alcotest.(check int) "one tune" 1 (Comm_tune.tune_count ct);
  Alcotest.(check int) "one hit" 1 (Comm_tune.hit_count ct)

let test_comm_tune_respects_availability () =
  let ct = Comm_tune.create () in
  let p = Machine.Perf_model.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20 in
  match Comm_tune.pick ct Machine.Spec.sierra p ~n_gpus:64 with
  | None -> Alcotest.fail "no policy"
  | Some (pol, _) ->
    Alcotest.(check bool) "no GDR picked on Sierra" true
      (pol.Machine.Policy.transfer <> Machine.Policy.Gdr)

let test_comm_tune_survey () =
  let ct = Comm_tune.create () in
  let p = Machine.Perf_model.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20 in
  let rows = Comm_tune.survey ct Machine.Spec.ray p ~gpu_counts:[ 4; 16; 64 ] in
  Alcotest.(check int) "3 rows" 3 (List.length rows);
  List.iter
    (fun (r : Comm_tune.survey_row) ->
      Alcotest.(check bool) "positive" true (r.Comm_tune.tflops > 0.);
      (* the halo-completion granularity axis is explicit: every row
         carries both the best-coarse and best-fine outcome, and the
         winner matches the better of the two *)
      match (r.Comm_tune.coarse_tflops, r.Comm_tune.fine_tflops) with
      | Some c, Some f ->
        let best = Float.max c f in
        Alcotest.(check (float 1e-9)) "winner = max(coarse, fine)" best
          r.Comm_tune.tflops;
        let expect_gran =
          if f >= c then Machine.Policy.Fine else Machine.Policy.Coarse
        in
        Alcotest.(check bool) "winner granularity consistent" true
          (r.Comm_tune.winner.Machine.Policy.granularity = expect_gran
          || Float.abs (c -. f) < 1e-9 *. best)
      | _ -> Alcotest.fail "granularity column missing")
    rows

let test_comm_tune_caches_negative () =
  (* an infeasible GPU count (no 4-factor grid divides the dims) must be
     tuned once and then served from cache — the regression for the
     None-not-cached bug *)
  let ct = Comm_tune.create () in
  let p = Machine.Perf_model.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20 in
  Alcotest.(check bool) "infeasible" true
    (Comm_tune.pick ct Machine.Spec.sierra p ~n_gpus:7 = None);
  Alcotest.(check bool) "still infeasible" true
    (Comm_tune.pick ct Machine.Spec.sierra p ~n_gpus:7 = None);
  Alcotest.(check int) "one tune" 1 (Comm_tune.tune_count ct);
  Alcotest.(check int) "one hit" 1 (Comm_tune.hit_count ct)

let suite =
  [
    Alcotest.test_case "tuner caches" `Quick test_tuner_caches;
    Alcotest.test_case "tuner signatures" `Quick test_tuner_distinguishes_signatures;
    Alcotest.test_case "tuner picks faster" `Quick test_tuner_picks_faster;
    Alcotest.test_case "tuner pick: spread-aware win rule" `Quick test_tuner_pick;
    Alcotest.test_case "save/load" `Quick test_tuner_save_load;
    Alcotest.test_case "corrupt tunecache: truncated last line" `Quick
      test_tunecache_truncated;
    Alcotest.test_case "corrupt tunecache: non-numeric time_s" `Quick
      test_tunecache_non_numeric;
    Alcotest.test_case "tune_hop valid" `Quick test_tune_hop_returns_valid_plan;
    Alcotest.test_case "pool geometries" `Quick test_pool_geometries_shape;
    Alcotest.test_case "executed plan is the tuned plan" `Quick
      test_executed_is_tuned;
    Alcotest.test_case "tune refuses empty or duplicate space" `Quick
      test_tune_refuses_bad_space;
    Alcotest.test_case "tune_axpy key isolation" `Quick test_tune_axpy_key_isolation;
    Alcotest.test_case "tune_hop key isolation" `Quick test_tune_hop_key_isolation;
    (* the tuning sweeps above spawn shared pools; quiesce them so the
       idle domains don't tax GC in the suites that run after this one *)
    Alcotest.test_case "quiesce shared pools" `Quick (fun () ->
        Util.Pool.shutdown_shared ());
    Alcotest.test_case "comm_tune caches" `Quick test_comm_tune_caches;
    Alcotest.test_case "comm_tune availability" `Quick test_comm_tune_respects_availability;
    Alcotest.test_case "comm_tune survey" `Quick test_comm_tune_survey;
    Alcotest.test_case "comm_tune caches None" `Quick test_comm_tune_caches_negative;
  ]
