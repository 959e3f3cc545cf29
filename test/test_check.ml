(* Tests for the Check subsystem: each pass on a positive (clean) and
   negative (seeded-defect) artifact, the runtime sanitizers, the
   fixtures/selftest loop the CLI relies on, and a qcheck property
   that generated campaigns always pass the DAG verifier. *)

module D = Check.Diagnostic
module Dag = Check.Dag_check
module Halo = Check.Halo_check
module Num = Check.Numeric_check
module Spec = Check.Spec_check
module P = Jobman.Pipeline
module F = Linalg.Field

let rules_fired ds = List.map (fun (d : D.t) -> d.D.rule) ds

let error_rules ds =
  List.filter_map
    (fun (d : D.t) -> if D.is_error d then Some d.D.rule else None)
    ds

let fires rule ds = List.mem rule (rules_fired ds)
let fires_error rule ds = List.mem rule (error_rules ds)

let task ?(nodes = 1) ?(duration = 60.) ?(deps = []) ?(cpu_only = false) id =
  { P.id; nodes; duration; deps; cpu_only }

(* ---------- diagnostic plumbing ---------- *)

let test_diagnostic_sort_and_exit () =
  let ds =
    [
      D.info ~rule:"NUM006" ~loc:"solve" "converged";
      D.error ~rule:"CAMP003" ~loc:"task 1" "cycle";
      D.warning ~rule:"CAMP004" ~loc:"task 2" "duplicate dep";
    ]
  in
  let sorted = D.sort ds in
  Alcotest.(check (list string))
    "errors first, then warnings, then info"
    [ "CAMP003"; "CAMP004"; "NUM006" ]
    (rules_fired sorted);
  Alcotest.(check int) "error report exits 1" 1 (D.exit_code [ ("p", ds) ]);
  Alcotest.(check int) "warning-only report exits 0" 0
    (D.exit_code [ ("p", List.filter (fun d -> not (D.is_error d)) ds) ])

(* ---------- DAG / campaign verifier ---------- *)

let test_dag_clean_campaign () =
  let tasks =
    P.campaign ~batch:4 ~n_props:32 ~prop_nodes:4 ~duration:600.
      (Util.Rng.create 11)
  in
  let ds = Dag.verify ~n_nodes:32 tasks in
  Alcotest.(check int) "no errors on generated campaign" 0 (D.count_errors ds)

let test_dag_cycle_detected () =
  let ds =
    Dag.verify ~n_nodes:8
      [ task 0 ~deps:[ 2 ]; task 1 ~deps:[ 0 ]; task 2 ~deps:[ 1 ]; task 3 ]
  in
  Alcotest.(check bool) "CAMP003 fires" true (fires_error "CAMP003" ds)

let test_dag_dangling_and_duplicate () =
  let ds = Dag.verify [ task 0 ~deps:[ 9 ]; task 1 ~deps:[ 0; 0 ] ] in
  Alcotest.(check bool) "CAMP002 dangling dep" true (fires_error "CAMP002" ds);
  Alcotest.(check bool) "CAMP004 duplicate dep" true (fires "CAMP004" ds);
  let dup = Dag.verify [ task 0; task 0 ] in
  Alcotest.(check bool) "CAMP001 duplicate id" true (fires_error "CAMP001" dup)

let test_dag_oversubscription () =
  let ds = Dag.verify ~n_nodes:32 [ task 0 ~nodes:64; task 1 ~deps:[ 0 ] ] in
  Alcotest.(check bool) "CAMP005 fires" true (fires_error "CAMP005" ds);
  (* without an allocation bound the same campaign is statically fine *)
  let unbounded = Dag.verify [ task 0 ~nodes:64; task 1 ~deps:[ 0 ] ] in
  Alcotest.(check int) "no allocation, no error" 0 (D.count_errors unbounded)

let test_dag_starvation_propagates () =
  (* 2 depends on the cycle {0,1}: tainted transitively, not just the
     cycle members themselves *)
  let ds =
    Dag.verify [ task 0 ~deps:[ 1 ]; task 1 ~deps:[ 0 ]; task 2 ~deps:[ 1 ] ]
  in
  Alcotest.(check bool) "CAMP008 downstream starvation" true (fires "CAMP008" ds)

let prop_campaign_always_verifies =
  QCheck.Test.make ~name:"Pipeline.campaign output always passes the DAG verifier"
    ~count:60
    QCheck.(
      quad (int_range 1 8) (int_range 1 48) (int_range 1 8) (int_range 1 10_000))
    (fun (batch, n_props, prop_nodes, seed) ->
      let tasks =
        P.campaign ~batch ~n_props ~prop_nodes ~duration:600.
          (Util.Rng.create seed)
      in
      let ds = Dag.verify ~n_nodes:(prop_nodes * 8) tasks in
      D.count_errors ds = 0)

(* ---------- halo race detector ---------- *)

let domain () =
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  Lattice.Domain.create geom [| 2; 2; 1; 1 |]

let test_halo_clean_schedule () =
  let ds =
    Halo.verify_schedule (domain ())
      [ Halo.Scatter; Halo.Exchange None; Halo.Stencil Halo.Full ]
  in
  Alcotest.(check int) "scatter/exchange/stencil is clean" 0 (D.count_errors ds)

let test_halo_missing_exchange () =
  let ds =
    Halo.verify_schedule (domain ()) [ Halo.Scatter; Halo.Stencil Halo.Full ]
  in
  Alcotest.(check bool) "HALO001 stale read" true (fires_error "HALO001" ds);
  let interior =
    Halo.verify_schedule (domain ()) [ Halo.Scatter; Halo.Stencil Halo.Interior ]
  in
  Alcotest.(check int) "interior stencil never reads ghosts" 0
    (D.count_errors interior)

let test_halo_partial_faces () =
  let ds =
    Halo.verify_schedule (domain ())
      [
        Halo.Scatter;
        Halo.Exchange (Some [| 0; 1; 2; 3 |]);
        Halo.Stencil Halo.Full;
      ]
  in
  Alcotest.(check bool) "HALO003 subset blamed" true (fires_error "HALO003" ds);
  (* x+/x- and y+/y- are matched pairs, so no unmatched warning ... *)
  Alcotest.(check bool) "matched subset has no HALO002" false (fires "HALO002" ds);
  (* ... but exchanging x+ alone leaves its opposite unmatched *)
  let lopsided =
    Halo.verify_schedule (domain ())
      [ Halo.Scatter; Halo.Exchange (Some [| 0 |]); Halo.Stencil Halo.Full ]
  in
  Alcotest.(check bool) "HALO002 unmatched pair warned" true
    (fires "HALO002" lopsided);
  (* exchanging x+ alone refreshes the receivers' x- ghosts: reading
     them is clean, and the stale x+ ghosts are the subset's fault *)
  let read_after_x_plus fs =
    Halo.verify_schedule (domain ())
      [ Halo.Scatter; Halo.Exchange (Some [| 0 |]); Halo.Stencil_faces fs ]
  in
  Alcotest.(check int) "x- read after x+ exchange is clean" 0
    (D.count_errors (read_after_x_plus [| 1 |]));
  let x_plus = read_after_x_plus [| 0 |] in
  Alcotest.(check bool) "x+ blamed on the subset" true
    (fires_error "HALO003" x_plus);
  Alcotest.(check bool) "x+ not blamed on a write" false
    (fires_error "HALO001" x_plus)

let test_halo_rewrite_invalidates () =
  let ds =
    Halo.verify_schedule (domain ())
      [
        Halo.Scatter;
        Halo.Exchange None;
        Halo.Write [];  (* every rank rewrites its local sites *)
        Halo.Stencil Halo.Full;
      ]
  in
  Alcotest.(check bool) "write after exchange goes stale" true
    (D.has_errors ds)

let test_halo_interleaved_clean () =
  (* a correct fine-grained post/interior/per-face-complete schedule has
     no diagnostics to give *)
  let ds =
    Halo.verify_schedule (domain ())
      [
        Halo.Scatter;
        Halo.Post None;
        Halo.Stencil Halo.Interior;
        Halo.Complete (Some [| 0 |]);
        Halo.Complete (Some [| 1 |]);
        Halo.Stencil_faces [| 0; 1 |];
        Halo.Complete (Some [| 2; 3; 4; 5; 6; 7 |]);
        Halo.Stencil Halo.Boundary;
      ]
  in
  Alcotest.(check int) "clean interleaving has no errors" 0 (D.count_errors ds)

let test_halo_early_boundary_read () =
  (* reading a ghost face that was posted but not yet completed is the
     "forgot the wait" bug: HALO007, distinct from plain staleness *)
  let ds =
    Halo.verify_schedule (domain ())
      [
        Halo.Scatter;
        Halo.Post None;
        Halo.Stencil_faces [| 0; 1 |];
        Halo.Complete None;
        Halo.Stencil Halo.Boundary;
      ]
  in
  Alcotest.(check bool) "HALO007 in-flight read" true (fires_error "HALO007" ds);
  Alcotest.(check bool) "not blamed as plain staleness" false
    (fires_error "HALO001" ds)

let test_halo_send_buffer_race () =
  let dom = domain () in
  let ds =
    Halo.verify_schedule dom
      [
        Halo.Scatter;
        Halo.Post None;
        Halo.Write [ 0 ];
        Halo.Complete None;
        Halo.Stencil Halo.Full;
      ]
  in
  Alcotest.(check bool) "HALO008 write between post and complete" true
    (fires_error "HALO008" ds);
  (* the diagnostic names the first racing site's global coordinate:
     scanning ranks then faces, the first in-flight message posted by
     rank 0 lands in its own z+ ghost face (z/t are undecomposed), so
     the racing send face is rank 0's z-, and the site is that face's
     first send site *)
  let msg =
    match List.find_opt (fun (d : D.t) -> d.D.rule = "HALO008") ds with
    | Some d -> d.D.message
    | None -> ""
  in
  let rg = Lattice.Domain.rank_geometry dom 0 in
  let send_face = rg.Lattice.Domain.faces.(5) in
  let g = rg.Lattice.Domain.local_to_global.(send_face.Lattice.Domain.send_sites.(0)) in
  let c = Lattice.Geometry.coords (Lattice.Domain.global dom) g in
  let expected =
    Printf.sprintf "first racing site: rank 0 face z- site %d = (%d,%d,%d,%d)" g
      c.(0) c.(1) c.(2) c.(3)
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "HALO008 names the racing site (%s)" expected)
    true (contains msg expected)

let test_halo_lost_completion () =
  let ds =
    Halo.verify_schedule (domain ())
      [
        Halo.Scatter;
        Halo.Post None;
        Halo.Complete (Some [| 0; 1; 2; 3 |]);
        Halo.Stencil_faces [| 0; 1; 2; 3 |];
      ]
  in
  Alcotest.(check bool) "HALO009 never-completed faces" true
    (fires_error "HALO009" ds)

(* The replay takes Vrank.Comm's input contract: a schedule Comm
   refuses at the call (so no recording holds it) is malformed, and
   verify_schedule raises naming itself, as Comm names its entry. *)
let test_halo_complete_without_post () =
  List.iter
    (fun (what, ops) ->
      match Halo.verify_schedule (domain ()) (Halo.Scatter :: ops) with
      | _ -> Alcotest.failf "%s: accepted" what
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names verify_schedule" what msg)
          true
          (String.starts_with ~prefix:"Halo_check.verify_schedule:" msg))
    [
      ("face 8", [ Halo.Exchange (Some [| 8 |]) ]);
      ("face -1", [ Halo.Post (Some [| -1 |]) ]);
      ("repeated id", [ Halo.Exchange (Some [| 0; 1; 0 |]) ]);
      ("rank 7", [ Halo.Write [ 7 ] ]);
      ( "complete without post",
        [ Halo.Complete (Some [| 0 |]); Halo.Stencil Halo.Interior ] );
    ]

(* The recording of the real fine-grained hop_overlapped verifies
   silent; moving its first boundary sub-stencil ahead of the complete
   of a face it reads is HALO007. *)
let test_halo_recorded_overlap () =
  let dom = domain () in
  let geom = Lattice.Domain.global dom in
  let rng = Util.Rng.create 19 in
  let dd = Vrank.Dd_wilson.create dom (Lattice.Gauge.random geom rng) in
  let src = F.create (Lattice.Geometry.volume geom * 24) in
  F.gaussian rng src;
  let _, ops =
    Halo.record (fun () ->
        Vrank.Dd_wilson.hop_global ~overlapped:true
          ~granularity:Machine.Policy.Fine dd src)
  in
  Alcotest.(check int) "recording verifies silent" 0
    (List.length (Halo.verify_schedule dom ops));
  let ops = Array.of_list ops in
  let first = ref (-1) in
  Array.iteri
    (fun i op ->
      match op with Halo.Stencil_faces _ when !first < 0 -> first := i | _ -> ())
    ops;
  let reads =
    match ops.(!first) with Halo.Stencil_faces fs -> fs | _ -> [||]
  in
  (* the latest complete before it of a face it reads *)
  let needed = ref (-1) in
  Array.iteri
    (fun i op ->
      match op with
      | Halo.Complete (Some [| f |]) when i < !first && Array.mem f reads ->
        needed := i
      | _ -> ())
    ops;
  Alcotest.(check bool) "the sub-stencil follows a complete it needs" true
    (!needed >= 0);
  let moved =
    List.concat
      [
        Array.to_list (Array.sub ops 0 !needed);
        [ ops.(!first) ];
        Array.to_list (Array.sub ops !needed (!first - !needed));
        Array.to_list (Array.sub ops (!first + 1) (Array.length ops - !first - 1));
      ]
  in
  Alcotest.(check bool) "HALO007 on the moved sub-stencil" true
    (fires_error "HALO007" (Halo.verify_schedule dom moved))

let test_halo_live_audit () =
  let dom = domain () in
  let comm = Vrank.Comm.create dom ~dof:2 in
  let n = Lattice.Geometry.volume (Lattice.Domain.global dom) * 2 in
  let global = F.create n in
  F.gaussian (Util.Rng.create 3) global;
  let locals = Vrank.Comm.create_fields comm in
  Vrank.Comm.scatter comm global locals;
  Alcotest.(check bool) "stale right after scatter" true
    (D.has_errors (Halo.audit comm));
  Vrank.Comm.halo_exchange comm locals;
  Alcotest.(check int) "fresh after full exchange" 0
    (D.count_errors (Halo.audit comm));
  Vrank.Comm.mark_written comm 0;
  let ds = Halo.audit comm in
  Alcotest.(check bool) "rewrite of rank 0 re-stales neighbors" true
    (D.has_errors ds)

(* Replay a schedule on a live Vrank.Comm (dof 1) and return the
   runtime verdict: bad when Comm raises, a stencil read hits a stale
   or in-flight ghost face, a send-buffer race is counted, or a post
   is never finished. *)
let runtime_bad ~transport dom ops =
  let module C = Vrank.Comm in
  let comm = C.create ~transport dom ~dof:1 in
  let global = F.create (Lattice.Geometry.volume (Lattice.Domain.global dom)) in
  F.gaussian (Util.Rng.create 9) global;
  let fields = C.create_fields comm in
  let handles = ref [] and bad = ref false in
  let in_flight face =
    List.find_opt (fun h -> List.mem face (C.pending_faces h)) !handles
  in
  let read faces =
    Array.iter
      (fun face ->
        for rank = 0 to C.n_ranks comm - 1 do
          if in_flight face <> None || not (C.ghost_fresh comm ~rank ~face)
          then bad := true
        done)
      faces
  in
  (* a face nobody posted is completed on an empty post, so Comm
     itself decides whether the completion is legal *)
  let complete face =
    let h =
      match in_flight face with
      | Some h -> h
      | None -> C.post ~faces:[||] comm fields
    in
    C.complete h ~face
  in
  (try
     List.iter
       (function
         | Halo.Scatter -> C.scatter comm global fields
         | Halo.Write [] ->
           Array.iteri (fun r _ -> C.mark_written comm r) fields
         | Halo.Write ranks -> List.iter (C.mark_written comm) ranks
         | Halo.Exchange faces -> C.halo_exchange ?faces comm fields
         | Halo.Post faces -> handles := C.post ?faces comm fields :: !handles
         | Halo.Complete None -> List.iter C.complete_all !handles
         | Halo.Complete (Some fs) -> Array.iter complete fs
         | Halo.Stencil Halo.Interior -> ()
         | Halo.Stencil (Halo.Full | Halo.Boundary) ->
           read (Array.init 8 Fun.id)
         | Halo.Stencil_faces fs -> read fs)
       ops
   with Invalid_argument _ -> bad := true);
  !bad
  || (C.stats comm).C.send_buffer_races > 0
  || List.exists (fun h -> not (C.finished h)) !handles

let test_halo_verdicts_match_comm () =
  let open Halo in
  let module T = Machine.Transport in
  let write_in_window =
    [ Scatter; Post None; Write [ 0 ]; Complete None; Exchange None;
      Stencil Full ]
  in
  List.iter
    (fun (what, transport, ops) ->
      let dom = domain () in
      (* a schedule Comm refuses breaks the replay's input contract *)
      let analyzer_bad =
        match verify_schedule ~transport dom ops with
        | ds -> D.has_errors ds
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool)
        (what ^ ": Halo_check errors iff Vrank.Comm sees a defect")
        (runtime_bad ~transport dom ops)
        analyzer_bad)
    [
      ("blocking clean", T.Staged, [ Scatter; Exchange None; Stencil Full ]);
      ( "interleaved clean", T.Staged,
        [ Scatter; Post None; Stencil Interior; Complete (Some [| 0 |]);
          Complete (Some [| 1 |]); Stencil_faces [| 0; 1 |];
          Complete (Some [| 2; 3; 4; 5; 6; 7 |]); Stencil Boundary ] );
      ( "zero-copy clean", T.Zero_copy,
        [ Scatter; Post None; Stencil Interior; Complete None;
          Stencil Boundary ] );
      ("missing exchange", T.Staged, [ Scatter; Stencil Full ]);
      ( "one-sided subset", T.Staged,
        [ Scatter; Exchange (Some [| 0 |]); Stencil Full ] );
      ( "early boundary read", T.Staged,
        [ Scatter; Post None; Stencil_faces [| 0; 1 |]; Complete None;
          Stencil Boundary ] );
      ("staged write in window", T.Staged, write_in_window);
      ("zero-copy write in window", T.Zero_copy, write_in_window);
      ("double-buffered write in window", T.Double_buffered, write_in_window);
      ( "lost completion", T.Staged,
        [ Scatter; Post None; Stencil Interior;
          Complete (Some [| 0; 1; 2; 3 |]); Stencil_faces [| 0; 1; 2; 3 |] ] );
      ( "complete without post", T.Staged,
        [ Scatter; Complete (Some [| 0 |]); Stencil Interior ] );
    ]

(* ---------- numeric sanitizer ---------- *)

let test_finite_checks () =
  let v = F.create 24 in
  F.gaussian (Util.Rng.create 5) v;
  Alcotest.(check int) "gaussian field is clean" 0
    (List.length (Num.check_finite ~what:"v" v));
  Bigarray.Array1.set v 3 Float.nan;
  Alcotest.(check bool) "NUM001 on NaN" true
    (fires_error "NUM001" (Num.check_finite ~what:"v" v));
  Bigarray.Array1.set v 3 Float.infinity;
  Alcotest.(check bool) "NUM002 on Inf" true
    (fires_error "NUM002" (Num.check_finite ~what:"v" v))

let test_sanitizer_traps_axpy () =
  let n = 24 in
  let x = F.create n and y = F.create n in
  F.fill x Float.nan;
  (* check_raises compares with (=), which NaN payloads defeat *)
  (match F.Sanitize.scoped (fun () -> F.axpy 1.0 x y) with
  | () -> Alcotest.fail "sanitizer did not trap the NaN"
  | exception F.Sanitize.Non_finite (kernel, idx, value) ->
    Alcotest.(check string) "trapping kernel" "Field.axpy" kernel;
    Alcotest.(check int) "first bad index" 0 idx;
    Alcotest.(check bool) "NaN payload" true (Float.is_nan value));
  Alcotest.(check bool) "off by default" false !F.Sanitize.enabled;
  (* recording mode: keeps going, logs the traps *)
  F.Sanitize.scoped ~raise_on_trap:false (fun () -> F.axpy 1.0 x y);
  Alcotest.(check bool) "traps recorded" true (!F.Sanitize.trap_count > 0)

let test_half_block_analysis () =
  let clean = F.create 48 in
  F.gaussian (Util.Rng.create 9) clean;
  Alcotest.(check int) "gaussian blocks are representable" 0
    (D.count_errors (Num.half_blocks ~block:24 clean));
  let bad = F.create 48 in
  F.fill bad 1e-9;
  Bigarray.Array1.set bad 0 1.0;
  for i = 24 to 47 do
    Bigarray.Array1.set bad i 1e-40
  done;
  let ds = Num.half_blocks ~block:24 bad in
  Alcotest.(check bool) "NUM003 dynamic range" true (fires_error "NUM003" ds);
  Alcotest.(check bool) "NUM005 norm underflow" true (fires "NUM005" ds);
  let misblocked = Num.half_blocks ~block:7 clean in
  Alcotest.(check bool) "block must divide length" true (D.has_errors misblocked)

let test_probe_mixed_solve () =
  let n = 2 * 24 in
  let apply (x : F.t) (y : F.t) =
    for i = 0 to n - 1 do
      Bigarray.Array1.set y i ((2.5 +. (float_of_int (i mod 24) /. 100.)) *. Bigarray.Array1.get x i)
    done
  in
  let b = F.create n in
  F.gaussian (Util.Rng.create 13) b;
  Alcotest.(check int) "clean SPD solve probes clean" 0
    (D.count_errors (Num.probe_mixed_solve ~apply ~b ()));
  let apply_nan x y =
    apply x y;
    Bigarray.Array1.set y 0 Float.nan
  in
  let ds = Num.probe_mixed_solve ~apply:apply_nan ~b () in
  Alcotest.(check bool) "NUM001 trapped at encode boundary" true
    (fires_error "NUM001" ds)

(* ---------- spec validation ---------- *)

let test_spec_default_clean () =
  let ds = Spec.workflow_spec Core.Workflow.default_spec in
  Alcotest.(check int) "shipped default spec has no errors" 0 (D.count_errors ds)

let test_spec_structural_errors () =
  let s = { Core.Workflow.default_spec with dims = [| 4; 4; 4 |] } in
  Alcotest.(check bool) "SPEC001 bad dims arity" true
    (fires_error "SPEC001" (Spec.workflow_spec s));
  let s = { Core.Workflow.default_spec with tol = 0. } in
  Alcotest.(check bool) "SPEC001 on bad tol" true
    (D.has_errors (Spec.workflow_spec s));
  let s = { Core.Workflow.default_spec with io_path = Some "" } in
  Alcotest.(check bool) "SPEC001 empty io_path" true
    (fires_error "SPEC001" (Spec.workflow_spec s));
  (* an even volume with an odd extent is still no checkerboard *)
  let s = { Core.Workflow.default_spec with dims = [| 3; 4; 4; 8 |] } in
  Alcotest.(check (list string)) "SPEC001 on an odd extent, no SPEC002"
    [ "SPEC001" ]
    (rules_fired (Spec.workflow_spec s));
  (* one SPEC001 per problem the gate of Workflow.run reports, and no
     advisory on a spec it rejects *)
  let s = { Core.Workflow.default_spec with l5 = 0; n_thermalize = 0 } in
  Alcotest.(check (list string)) "one SPEC001 per validate_spec problem"
    (List.map (fun _ -> "SPEC001") (Core.Workflow.validate_spec s))
    (rules_fired (Spec.workflow_spec s))

let test_spec_mixed_config () =
  let bad = { Solver.Mixed.default_config with block = 7 } in
  (* 7 does not divide the 4^3x8 / 2 * l5 * 24 inner length *)
  Alcotest.(check bool) "SPEC006 indivisible block" true
    (fires_error "SPEC006"
       (Spec.mixed_config ~n:(4 * 4 * 4 * 8 / 2 * 6 * 24) bad));
  match Solver.Mixed.validate_config ~n:48 { Solver.Mixed.default_config with block = 7 } with
  | Ok () -> Alcotest.fail "validate_config should reject block=7 for n=48"
  | Error _ -> ()

let test_workflow_run_rejects_invalid () =
  let s = { Core.Workflow.default_spec with l5 = 0 } in
  Alcotest.(check bool) "validate_spec reports l5" true
    (Core.Workflow.validate_spec s <> []);
  match Core.Workflow.run ~spec:s () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Workflow.run accepted an invalid spec"

(* ---------- fixtures, selftest, standard suite ---------- *)

let test_selftest_detects_all () =
  let rows = Check.selftest () in
  (* the expected defect-class count is wired here on purpose: a
     fixture silently dropped from the list (so --selftest would print
     n/n for a smaller n) fails the suite *)
  Alcotest.(check int) "22 seeded defect classes" 22 (List.length rows);
  List.iter
    (fun (rule : string) ->
      Alcotest.(check bool) (rule ^ " has a fixture") true
        (List.exists
           (fun ((f : Check.Fixtures.t), _, _) -> f.Check.Fixtures.expect = rule)
           rows))
    [
      "HALO011"; "HALO012"; "HALO013";
      "PLAN001"; "PLAN002"; "PLAN005"; "PLAN007"; "PLAN008";
      "PREC001"; "PREC003";
      "RECON001";
      "DEF001"; "DEF002";
    ];
  List.iter
    (fun ((f : Check.Fixtures.t), rules, detected) ->
      Alcotest.(check bool) (f.Check.Fixtures.name ^ " detected") true detected;
      Alcotest.(check bool)
        (f.Check.Fixtures.name ^ " fires " ^ f.Check.Fixtures.expect)
        true
        (List.mem f.Check.Fixtures.expect rules))
    rows

let test_standard_suite_clean () =
  let report = Check.standard_suite () in
  Alcotest.(check int) "eight passes" 8 (List.length report);
  Alcotest.(check int) "zero errors on shipped artifacts" 0
    (D.report_errors report);
  (* silent, not just error-free: a warning-only rule (HALO012,
     PLAN008) firing on a shipped artifact is a regression too *)
  Alcotest.(check int) "zero warnings on shipped artifacts" 0
    (D.report_warnings report);
  Alcotest.(check int) "exit code 0" 0 (D.exit_code report)

let test_rule_ids_catalogued () =
  (* every id a fixture fires is listed by --rules, and no id is
     listed twice: a pass cannot emit a rule the catalog forgot *)
  let ids =
    List.concat_map (fun (_, rules) -> List.map fst rules) Check.all_rules
  in
  List.iter
    (fun (f : Check.Fixtures.t) ->
      List.iter
        (fun (d : D.t) ->
          if not (List.mem d.D.rule ids) then
            Alcotest.failf "fixture %s fires %s, missing from Check.all_rules"
              f.Check.Fixtures.name d.D.rule)
        (f.Check.Fixtures.run ()))
    Check.Fixtures.all;
  Alcotest.(check int) "no rule id listed twice"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let suite =
  [
    Alcotest.test_case "diagnostic sort and exit code" `Quick
      test_diagnostic_sort_and_exit;
    Alcotest.test_case "dag: generated campaign clean" `Quick
      test_dag_clean_campaign;
    Alcotest.test_case "dag: cycle detected" `Quick test_dag_cycle_detected;
    Alcotest.test_case "dag: dangling and duplicate deps" `Quick
      test_dag_dangling_and_duplicate;
    Alcotest.test_case "dag: oversubscription" `Quick test_dag_oversubscription;
    Alcotest.test_case "dag: starvation propagates" `Quick
      test_dag_starvation_propagates;
    Alcotest.test_case "halo: clean schedule" `Quick test_halo_clean_schedule;
    Alcotest.test_case "halo: missing exchange" `Quick test_halo_missing_exchange;
    Alcotest.test_case "halo: partial faces" `Quick test_halo_partial_faces;
    Alcotest.test_case "halo: rewrite invalidates ghosts" `Quick
      test_halo_rewrite_invalidates;
    Alcotest.test_case "halo: clean interleaving" `Quick
      test_halo_interleaved_clean;
    Alcotest.test_case "halo: early boundary read" `Quick
      test_halo_early_boundary_read;
    Alcotest.test_case "halo: send-buffer race" `Quick test_halo_send_buffer_race;
    Alcotest.test_case "halo: lost completion" `Quick test_halo_lost_completion;
    Alcotest.test_case "halo: complete without post" `Quick
      test_halo_complete_without_post;
    Alcotest.test_case "halo: recorded overlap, early boundary read" `Quick
      test_halo_recorded_overlap;
    Alcotest.test_case "halo: live comm audit" `Quick test_halo_live_audit;
    Alcotest.test_case "halo: verdicts match Vrank.Comm" `Quick
      test_halo_verdicts_match_comm;
    Alcotest.test_case "numeric: finite checks" `Quick test_finite_checks;
    Alcotest.test_case "numeric: sanitizer traps axpy" `Quick
      test_sanitizer_traps_axpy;
    Alcotest.test_case "numeric: half block analysis" `Quick
      test_half_block_analysis;
    Alcotest.test_case "numeric: probe mixed solve" `Quick test_probe_mixed_solve;
    Alcotest.test_case "spec: default clean" `Quick test_spec_default_clean;
    Alcotest.test_case "spec: structural errors" `Quick
      test_spec_structural_errors;
    Alcotest.test_case "spec: mixed config" `Quick test_spec_mixed_config;
    Alcotest.test_case "spec: run rejects invalid" `Quick
      test_workflow_run_rejects_invalid;
    Alcotest.test_case "fixtures: selftest detects all" `Quick
      test_selftest_detects_all;
    Alcotest.test_case "standard suite clean" `Quick test_standard_suite_clean;
    Alcotest.test_case "rule ids catalogued once" `Quick test_rule_ids_catalogued;
    QCheck_alcotest.to_alcotest prop_campaign_always_verifies;
  ]
