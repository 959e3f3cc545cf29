(* The halo-transport dimension end to end: Comm delivery semantics
   (staged vs zero-copy vs double-buffered), race/corruption/copy
   accounting, threading through the operator and solver, the perf
   model's extra-copy pricing, the policy-honesty matrix, the
   autotuner's transport x granularity combo cache, and the HALO011-013
   checker rules. *)

module Field = Linalg.Field
module Comm = Vrank.Comm
module Transport = Machine.Transport
module Policy = Machine.Policy
module Spec = Machine.Spec
module PM = Machine.Perf_model
module HC = Check.Halo_check
module D = Check.Diagnostic

let dof = 2

let make_domain () =
  let geom = Lattice.Geometry.create [| 4; 4; 4; 4 |] in
  Lattice.Domain.create geom [| 2; 2; 1; 1 |]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Scatter a seeded gaussian field, post all faces, bump every local
   site of every rank by +1.0 (the racing write), then complete. The
   perturbation is identical across transports, so any difference in
   the final per-rank fields is ghost data. *)
let raced_round transport =
  let dom = make_domain () in
  let geom = Lattice.Domain.global dom in
  let comm = Comm.create ~transport dom ~dof in
  let global = Field.create (Lattice.Geometry.volume geom * dof) in
  Field.gaussian (Util.Rng.create 11) global;
  let fields = Comm.create_fields comm in
  Comm.scatter comm global fields;
  let h = Comm.post comm fields in
  for r = 0 to Comm.n_ranks comm - 1 do
    let rg = Lattice.Domain.rank_geometry dom r in
    for i = 0 to (rg.Lattice.Domain.local_volume * dof) - 1 do
      fields.(r).{i} <- fields.(r).{i} +. 1.0
    done;
    Comm.mark_written comm r
  done;
  Comm.complete_all h;
  (comm, fields)

(* The ghosts a fresh exchange of the post-write data delivers: what a
   zero-copy transport's raced messages really put on the wire. *)
let post_write_reference () =
  let dom = make_domain () in
  let geom = Lattice.Domain.global dom in
  let comm = Comm.create dom ~dof in
  let global = Field.create (Lattice.Geometry.volume geom * dof) in
  Field.gaussian (Util.Rng.create 11) global;
  let fields = Comm.create_fields comm in
  Comm.scatter comm global fields;
  for r = 0 to Comm.n_ranks comm - 1 do
    let rg = Lattice.Domain.rank_geometry dom r in
    for i = 0 to (rg.Lattice.Domain.local_volume * dof) - 1 do
      fields.(r).{i} <- fields.(r).{i} +. 1.0
    done;
    Comm.mark_written comm r
  done;
  Comm.halo_exchange comm fields;
  fields

let fields_equal a b =
  Array.for_all2 (fun x y -> Field.max_abs_diff x y = 0.) a b

let test_staged_race_flagged_data_safe () =
  let comm, staged = raced_round Transport.Staged in
  let s = Comm.stats comm in
  Alcotest.(check bool) "race counted" true (s.Comm.send_buffer_races > 0);
  Alcotest.(check int) "no corruption" 0 s.Comm.corruptions;
  Alcotest.(check int) "no extra copies" 0 s.Comm.extra_copies;
  (* delivered ghosts are the post-time data, not the written data *)
  let reference = post_write_reference () in
  Alcotest.(check bool) "ghosts differ from post-write data" false
    (fields_equal staged reference)

let test_zero_copy_race_corrupts () =
  let comm_st, staged = raced_round Transport.Staged in
  let comm_zc, zc = raced_round Transport.Zero_copy in
  let st = Comm.stats comm_st and sz = Comm.stats comm_zc in
  Alcotest.(check int) "same races as staged" st.Comm.send_buffer_races
    sz.Comm.send_buffer_races;
  Alcotest.(check bool) "corruptions counted" true (sz.Comm.corruptions > 0);
  Alcotest.(check int) "every raced message corrupt" sz.Comm.send_buffer_races
    sz.Comm.corruptions;
  Alcotest.(check bool) "delivered ghosts differ from staged" false
    (fields_equal staged zc);
  (* the corrupt ghosts are exactly the sender's live (written) data *)
  let reference = post_write_reference () in
  Alcotest.(check bool) "zero-copy delivered the written data" true
    (fields_equal zc reference);
  (* the live audit turns the corruption counter into HALO011 *)
  let ds = Check.Halo_check.audit comm_zc in
  Alcotest.(check bool) "audit fires HALO011" true
    (List.exists (fun (d : D.t) -> d.D.rule = "HALO011") ds)

let test_double_buffered_race_free () =
  let comm_st, staged = raced_round Transport.Staged in
  let comm_db, db = raced_round Transport.Double_buffered in
  let st = Comm.stats comm_st and sd = Comm.stats comm_db in
  Alcotest.(check int) "no races counted" 0 sd.Comm.send_buffer_races;
  Alcotest.(check int) "no corruptions" 0 sd.Comm.corruptions;
  Alcotest.(check int) "one extra copy per message" sd.Comm.messages
    sd.Comm.extra_copies;
  Alcotest.(check int) "same messages as staged" st.Comm.messages
    sd.Comm.messages;
  Alcotest.(check bool) "bit-identical to staged delivery" true
    (fields_equal staged db)

let test_zero_copy_strict_raises () =
  Comm.strict := true;
  let raised =
    try
      let _ = raced_round Transport.Zero_copy in
      false
    with Invalid_argument _ -> true
  in
  Comm.strict := false;
  Alcotest.(check bool) "strict zero-copy race raises" true raised;
  (* double-buffered survives the same schedule under strict *)
  Comm.strict := true;
  let ok =
    try
      let _ = raced_round Transport.Double_buffered in
      true
    with e ->
      Comm.strict := false;
      raise e
  in
  Comm.strict := false;
  Alcotest.(check bool) "strict double-buffered clean" true ok

(* Three write/exchange rounds: the two rotating buffers alternate, so
   a rotation bug (reusing a still-posted slot, or delivering the
   other slot) shows up as stale ghosts vs the staged run. *)
let test_double_buffer_rotation () =
  let run transport =
    let dom = make_domain () in
    let geom = Lattice.Domain.global dom in
    let comm = Comm.create ~transport dom ~dof in
    let global = Field.create (Lattice.Geometry.volume geom * dof) in
    Field.gaussian (Util.Rng.create 5) global;
    let fields = Comm.create_fields comm in
    Comm.scatter comm global fields;
    for round = 1 to 3 do
      Comm.halo_exchange comm fields;
      for r = 0 to Comm.n_ranks comm - 1 do
        let rg = Lattice.Domain.rank_geometry dom r in
        for i = 0 to (rg.Lattice.Domain.local_volume * dof) - 1 do
          fields.(r).{i} <- fields.(r).{i} +. float_of_int round
        done;
        Comm.mark_written comm r
      done
    done;
    Comm.halo_exchange comm fields;
    (comm, fields)
  in
  let _, staged = run Transport.Staged in
  let comm_db, db = run Transport.Double_buffered in
  Alcotest.(check bool) "four rotations deliver staged data" true
    (fields_equal staged db);
  let s = Comm.stats comm_db in
  Alcotest.(check int) "extra copies track messages" s.Comm.messages
    s.Comm.extra_copies

let test_transport_threading () =
  let dom = make_domain () in
  let rng = Util.Rng.create 3 in
  let gauge = Lattice.Gauge.random (Lattice.Domain.global dom) rng in
  let dd = Vrank.Dd_wilson.create dom gauge in
  Alcotest.(check bool) "default transport is staged" true
    (Comm.transport (Vrank.Dd_wilson.comm dd) = Transport.Staged);
  List.iter
    (fun tr ->
      let dd = Vrank.Dd_wilson.create ~transport:tr dom gauge in
      Alcotest.(check bool)
        ("operator carries " ^ Transport.name tr)
        true
        (Comm.transport (Vrank.Dd_wilson.comm dd) = tr);
      let solver = Vrank.Dd_solve.create dd ~mass:0.1 in
      Alcotest.(check bool)
        ("solver reports " ^ Transport.name tr)
        true
        (Vrank.Dd_solve.transport solver = tr))
    Transport.all

(* With no writes between post and complete, every transport's
   overlapped hop is bit-identical to the blocking staged hop, at both
   completion granularities, with strict freshness asserts armed. *)
let test_hop_identical_across_transports () =
  let geom = Lattice.Geometry.create [| 4; 4; 2; 2 |] in
  let rng = Util.Rng.create 17 in
  let gauge = Lattice.Gauge.random geom rng in
  let dom = Lattice.Domain.create geom [| 2; 2; 1; 1 |] in
  let src = Field.create (Lattice.Geometry.volume geom * 24) in
  Field.gaussian rng src;
  let blocking =
    Vrank.Dd_wilson.hop_global ~overlapped:false
      (Vrank.Dd_wilson.create dom gauge)
      src
  in
  List.iter
    (fun tr ->
      List.iter
        (fun gran ->
          let dd = Vrank.Dd_wilson.create ~transport:tr dom gauge in
          Comm.strict := true;
          let hop =
            try Vrank.Dd_wilson.hop_global ~overlapped:true ~granularity:gran dd src
            with e ->
              Comm.strict := false;
              raise e
          in
          Comm.strict := false;
          Alcotest.(check (float 0.))
            (Transport.name tr ^ "/" ^ Policy.granularity_name gran
           ^ " = blocking")
            0.
            (Field.max_abs_diff blocking hop))
        [ Policy.Coarse; Policy.Fine ])
    Transport.all

let test_solve_identical_across_transports () =
  let geom = Lattice.Geometry.create [| 4; 4; 2; 2 |] in
  let rng = Util.Rng.create 23 in
  let gauge = Lattice.Gauge.random geom rng in
  let dom = Lattice.Domain.create geom [| 2; 1; 1; 1 |] in
  let b = Field.create (Lattice.Geometry.volume geom * 24) in
  Field.gaussian rng b;
  let solve tr =
    let dd = Vrank.Dd_wilson.create ~transport:tr dom gauge in
    let solver = Vrank.Dd_solve.create dd ~mass:0.1 in
    let x, _, `Exchanges ex, `Allreduces ar =
      Vrank.Dd_solve.solve_normal ~tol:1e-8 solver ~b_global:b
    in
    (x, ex, ar)
  in
  let x_st, ex_st, ar_st = solve Transport.Staged in
  List.iter
    (fun tr ->
      let x, ex, ar = solve tr in
      Alcotest.(check (float 0.))
        (Transport.name tr ^ " solution = staged")
        0. (Field.max_abs_diff x_st x);
      Alcotest.(check int) "same exchanges" ex_st ex;
      Alcotest.(check int) "same allreduces" ar_st ar)
    [ Transport.Zero_copy; Transport.Double_buffered ]

let test_perf_model_prices_extra_copy () =
  let m = Spec.sierra in
  let p = PM.problem ~dims:[| 16; 16; 16; 32 |] ~l5:8 in
  match PM.best_policy m p ~n_gpus:8 with
  | None -> Alcotest.fail "no feasible policy on sierra at 8 GPUs"
  | Some r ->
    let pol = r.PM.policy in
    let bd tr =
      match PM.stencil_breakdown ~transport:tr m pol p ~n_gpus:8 with
      | Some b -> b
      | None -> Alcotest.fail "breakdown vanished"
    in
    let st = bd Transport.Staged
    and zc = bd Transport.Zero_copy
    and db = bd Transport.Double_buffered in
    Alcotest.(check (float 0.)) "staged pays no copy" 0. st.PM.t_copy;
    Alcotest.(check (float 0.)) "zero-copy pays no copy" 0. zc.PM.t_copy;
    Alcotest.(check bool) "double-buffered copy costs time" true
      (db.PM.t_copy > 0.);
    Alcotest.(check bool) "copy lands in t_total" true
      (abs_float (db.PM.t_total -. st.PM.t_total -. db.PM.t_copy)
      < 1e-12 *. st.PM.t_total);
    (* the default transport leaves the calibrated model untouched *)
    (match PM.stencil_breakdown m pol p ~n_gpus:8 with
    | Some d -> Alcotest.(check (float 0.)) "default = staged" st.PM.t_total d.PM.t_total
    | None -> Alcotest.fail "default breakdown vanished");
    match PM.solver_performance ~transport:Transport.Double_buffered m pol p ~n_gpus:8 with
    | Some r2 ->
      Alcotest.(check bool) "result records its transport" true
        (r2.PM.transport = Transport.Double_buffered);
      Alcotest.(check bool) "extra copy never helps" true
        (r2.PM.tflops_total <= r.PM.tflops_total)
    | None -> Alcotest.fail "double-buffered result vanished"

let test_policy_transport_honesty () =
  List.iter
    (fun (pol : Policy.t) ->
      let ok tr = Policy.transport_ok pol tr in
      match pol.Policy.transfer with
      | Policy.Staged_mpi ->
        Alcotest.(check bool) (Policy.name pol ^ " staged ok") true (ok Transport.Staged);
        Alcotest.(check bool)
          (Policy.name pol ^ " zero-copy dishonest")
          false (ok Transport.Zero_copy);
        Alcotest.(check bool)
          (Policy.name pol ^ " double-buffered ok")
          true
          (ok Transport.Double_buffered)
      | Policy.Zero_copy | Policy.Gdr ->
        Alcotest.(check bool)
          (Policy.name pol ^ " staged dishonest")
          false (ok Transport.Staged);
        Alcotest.(check bool)
          (Policy.name pol ^ " zero-copy ok")
          true (ok Transport.Zero_copy);
        Alcotest.(check bool)
          (Policy.name pol ^ " double-buffered ok")
          true
          (ok Transport.Double_buffered))
    Policy.all

let test_pick_combo_cached () =
  let ct = Autotune.Comm_tune.create () in
  let m = Spec.ray in
  let p = PM.problem ~dims:[| 16; 16; 16; 32 |] ~l5:8 in
  let combo () =
    Autotune.Comm_tune.pick_combo ct m p ~n_gpus:8 ~transport:Transport.Staged
      ~granularity:Policy.Fine
  in
  (match combo () with
  | None -> Alcotest.fail "staged/fine combo should be feasible on ray"
  | Some r ->
    (* the only policy honestly modeled by Staged is the staged-MPI path *)
    Alcotest.(check bool) "staged transport picks staged-mpi" true
      (r.PM.policy.Policy.transfer = Policy.Staged_mpi);
    Alcotest.(check bool) "combo result priced as staged" true
      (r.PM.transport = Transport.Staged));
  Alcotest.(check int) "one combo tuned" 1
    (Autotune.Comm_tune.combo_tune_count ct);
  ignore (combo ());
  Alcotest.(check int) "second lookup is a hit" 1
    (Autotune.Comm_tune.combo_hit_count ct);
  Alcotest.(check int) "still one tune" 1
    (Autotune.Comm_tune.combo_tune_count ct);
  (* infeasible GPU count: the None outcome is cached too *)
  let bad () =
    Autotune.Comm_tune.pick_combo ct m p ~n_gpus:7
      ~transport:Transport.Zero_copy ~granularity:Policy.Fine
  in
  Alcotest.(check bool) "7 GPUs infeasible" true (bad () = None);
  let tunes = Autotune.Comm_tune.combo_tune_count ct in
  Alcotest.(check bool) "None came from a tune" true (tunes = 2);
  ignore (bad ());
  Alcotest.(check int) "cached None costs no tune" tunes
    (Autotune.Comm_tune.combo_tune_count ct)

let test_pick_require_safe () =
  let ct = Autotune.Comm_tune.create () in
  let m = Spec.ray in
  let p = PM.problem ~dims:[| 16; 16; 16; 32 |] ~l5:8 in
  match
    ( Autotune.Comm_tune.pick ct m p ~n_gpus:8,
      Autotune.Comm_tune.pick ~require_safe:true ct m p ~n_gpus:8 )
  with
  | Some (_, best), Some (_, safe) ->
    Alcotest.(check bool) "safe winner never zero-copy" true
      (safe.PM.transport <> Transport.Zero_copy);
    Alcotest.(check bool) "race-freedom cannot beat the open grid" true
      (safe.PM.tflops_total <= best.PM.tflops_total +. 1e-9);
    (* on ray the open grid's winner is the direct GDR wire *)
    Alcotest.(check bool) "ray winner is zero-copy transport" true
      (best.PM.transport = Transport.Zero_copy)
  | _ -> Alcotest.fail "8 GPUs should be feasible on ray"

let test_survey_safe_column () =
  let ct = Autotune.Comm_tune.create () in
  let m = Spec.ray in
  let p = PM.problem ~dims:[| 16; 16; 16; 32 |] ~l5:8 in
  let rows = Autotune.Comm_tune.survey ct m p ~gpu_counts:[ 4; 8 ] in
  Alcotest.(check int) "two feasible rows" 2 (List.length rows);
  List.iter
    (fun (row : Autotune.Comm_tune.survey_row) ->
      match row.Autotune.Comm_tune.safe_tflops with
      | None -> Alcotest.fail "safe column must be feasible when winner is"
      | Some s ->
        Alcotest.(check bool) "safe <= winner" true
          (s <= row.Autotune.Comm_tune.tflops +. 1e-9))
    rows

(* ---- checker rules ---- *)

let racing_schedule =
  [
    HC.Scatter;
    HC.Post None;
    HC.Write [ 0 ];
    HC.Complete None;
    HC.Exchange None;
    HC.Stencil HC.Full;
  ]

let quiet_schedule =
  [
    HC.Scatter;
    HC.Post None;
    HC.Stencil HC.Interior;
    HC.Complete None;
    HC.Stencil HC.Boundary;
  ]

let rules_of ds = List.map (fun (d : D.t) -> d.D.rule) ds

let test_halo011_zero_copy_write () =
  let ds =
    HC.verify_schedule ~transport:Transport.Zero_copy (make_domain ())
      racing_schedule
  in
  let rules = rules_of ds in
  Alcotest.(check bool) "HALO011 fires" true (List.mem "HALO011" rules);
  Alcotest.(check bool) "HALO008 stays quiet under zero-copy" false
    (List.mem "HALO008" rules);
  let d = List.find (fun (d : D.t) -> d.D.rule = "HALO011") ds in
  Alcotest.(check bool) "names the first racing site" true
    (contains d.D.message "first racing site");
  Alcotest.(check bool) "is an error" true (d.D.severity = D.Error)

let test_halo012_wasted_double_buffer () =
  (* a racing write makes every copy earn its keep: clean *)
  let earned =
    HC.verify_schedule ~transport:Transport.Double_buffered (make_domain ())
      racing_schedule
  in
  Alcotest.(check int) "racing double-buffered schedule is clean" 0
    (List.length earned);
  (* no write between any post and complete: the warning fires *)
  let wasted =
    HC.verify_schedule ~transport:Transport.Double_buffered (make_domain ())
      quiet_schedule
  in
  let d =
    match List.filter (fun (d : D.t) -> d.D.rule = "HALO012") wasted with
    | [ d ] -> d
    | ds -> Alcotest.fail (Printf.sprintf "expected one HALO012, got %d" (List.length ds))
  in
  Alcotest.(check bool) "wasted copies are a warning, not an error" true
    (d.D.severity = D.Warning);
  (* the staged transport never warns about copies it never rotated *)
  let staged = HC.verify_schedule (make_domain ()) quiet_schedule in
  Alcotest.(check bool) "no HALO012 under staged" false
    (List.mem "HALO012" (rules_of staged))

let test_halo013_transport_mismatch () =
  let dom = make_domain () in
  let schedule = [ HC.Scatter; HC.Exchange None; HC.Stencil HC.Full ] in
  let pol transfer = { Policy.transfer; granularity = Policy.Fine } in
  let fires transport policy =
    List.mem "HALO013"
      (rules_of (HC.verify_schedule ~transport ~policy dom schedule))
  in
  Alcotest.(check bool) "staged model of a GDR wire" true
    (fires Transport.Staged (pol Policy.Gdr));
  Alcotest.(check bool) "zero-copy model of staged MPI" true
    (fires Transport.Zero_copy (pol Policy.Staged_mpi));
  Alcotest.(check bool) "honest staged pairing" false
    (fires Transport.Staged (pol Policy.Staged_mpi));
  Alcotest.(check bool) "honest zero-copy pairing" false
    (fires Transport.Zero_copy (pol Policy.Zero_copy));
  Alcotest.(check bool) "double-buffered honest everywhere" false
    (fires Transport.Double_buffered (pol Policy.Gdr)
    || fires Transport.Double_buffered (pol Policy.Staged_mpi));
  (* no policy given: nothing to be dishonest about *)
  let ds = HC.verify_schedule ~transport:Transport.Zero_copy dom schedule in
  Alcotest.(check bool) "no policy, no HALO013" false
    (List.mem "HALO013" (rules_of ds))

let suite =
  [
    Alcotest.test_case "staged: race flagged, data safe" `Quick
      test_staged_race_flagged_data_safe;
    Alcotest.test_case "zero-copy: race corrupts delivered ghosts" `Quick
      test_zero_copy_race_corrupts;
    Alcotest.test_case "double-buffered: race-free, copies counted" `Quick
      test_double_buffered_race_free;
    Alcotest.test_case "strict mode: zero-copy raises, double-buffered clean"
      `Quick test_zero_copy_strict_raises;
    Alcotest.test_case "double-buffer rotation over many rounds" `Quick
      test_double_buffer_rotation;
    Alcotest.test_case "transport threads operator -> solver" `Quick
      test_transport_threading;
    Alcotest.test_case "hop identical across transports x granularities" `Quick
      test_hop_identical_across_transports;
    Alcotest.test_case "solve identical across transports" `Quick
      test_solve_identical_across_transports;
    Alcotest.test_case "perf model prices the extra copy" `Quick
      test_perf_model_prices_extra_copy;
    Alcotest.test_case "policy/transport honesty matrix" `Quick
      test_policy_transport_honesty;
    Alcotest.test_case "autotuner combo cache (incl. infeasible)" `Quick
      test_pick_combo_cached;
    Alcotest.test_case "pick ~require_safe drops zero-copy" `Quick
      test_pick_require_safe;
    Alcotest.test_case "survey safe column" `Quick test_survey_safe_column;
    Alcotest.test_case "HALO011: zero-copy write-after-post" `Quick
      test_halo011_zero_copy_write;
    Alcotest.test_case "HALO012: wasted double-buffer copies" `Quick
      test_halo012_wasted_double_buffer;
    Alcotest.test_case "HALO013: transport/policy mismatch" `Quick
      test_halo013_transport_mismatch;
  ]
