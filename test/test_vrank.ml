(* Tests for Vrank: halo exchange correctness and the domain-decomposed
   Wilson operator against the single-domain oracle. *)

module Geometry = Lattice.Geometry
module Gauge = Lattice.Gauge
module Domain = Lattice.Domain
module Field = Linalg.Field
module Comm = Vrank.Comm
module Dd = Vrank.Dd_wilson

let rng () = Util.Rng.create 44_100

let test_exchange_fills_ghosts () =
  (* After an exchange, every ghost slot holds the value of its global
     site (checked through local_to_global). *)
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let dom = Domain.create geom [| 2; 2; 1; 1 |] in
  let comm = Comm.create dom ~dof:1 in
  (* global field = site index as a float *)
  let global = Field.of_array (Array.init (Geometry.volume geom) float_of_int) in
  let fields = Comm.create_fields comm in
  Comm.scatter comm global fields;
  Comm.halo_exchange comm fields;
  for r = 0 to Domain.n_ranks dom - 1 do
    let rg = Domain.rank_geometry dom r in
    for e = 0 to rg.Domain.ext_volume - 1 do
      Alcotest.(check (float 0.))
        (Printf.sprintf "rank %d ext %d" r e)
        (float_of_int rg.Domain.local_to_global.(e))
        (Bigarray.Array1.get fields.(r) e)
    done
  done

let test_exchange_byte_accounting () =
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let dom = Domain.create geom [| 2; 1; 1; 2 |] in
  let dof = 24 in
  let comm = Comm.create dom ~dof in
  let fields = Comm.create_fields comm in
  Comm.halo_exchange comm fields;
  let stats = Comm.stats comm in
  Alcotest.(check int) "one full exchange" 1 stats.Comm.full_exchanges;
  Alcotest.(check int) "no partial exchange" 0 stats.Comm.partial_exchanges;
  Alcotest.(check int) "8 faces x 4 ranks" 32 stats.Comm.messages;
  (* total bytes = sum over ranks of halo bytes *)
  let expect = ref 0. in
  for r = 0 to Domain.n_ranks dom - 1 do
    expect := !expect +. Comm.halo_bytes_per_rank comm r
  done;
  Alcotest.(check (float 1e-6)) "byte accounting" !expect stats.Comm.bytes

let dd_matches_oracle grid dims =
  let geom = Geometry.create dims in
  let gauge = Gauge.random geom (rng ()) in
  let dom = Domain.create geom grid in
  let dd = Dd.create dom gauge in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let n = Geometry.volume geom * 24 in
  let src = Field.create n in
  Field.gaussian (rng ()) src;
  let oracle = Field.create n in
  Dirac.Wilson.hop w ~src ~dst:oracle;
  let dd_result = Dd.hop_global dd src in
  Field.max_abs_diff oracle dd_result

let test_dd_wilson_grids () =
  List.iter
    (fun (grid, dims) ->
      let diff = dd_matches_oracle grid dims in
      Alcotest.(check bool)
        (Printf.sprintf "grid [%s] diff %g"
           (String.concat ";" (Array.to_list (Array.map string_of_int grid)))
           diff)
        true (diff < 1e-12))
    [
      ([| 1; 1; 1; 1 |], [| 4; 4; 2; 2 |]);
      ([| 2; 1; 1; 1 |], [| 4; 4; 2; 2 |]);
      ([| 2; 2; 1; 1 |], [| 4; 4; 2; 2 |]);
      ([| 1; 1; 2; 2 |], [| 2; 2; 4; 4 |]);
      ([| 2; 2; 2; 2 |], [| 4; 4; 4; 4 |]);
      ([| 1; 2; 1; 4 |], [| 4; 4; 4; 8 |]);
    ]

let test_dd_overlapped_equals_simple () =
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let gauge = Gauge.random geom (rng ()) in
  let dom = Domain.create geom [| 2; 2; 1; 1 |] in
  let dd = Dd.create dom gauge in
  let src = Field.create (Geometry.volume geom * 24) in
  Field.gaussian (rng ()) src;
  let simple = Dd.hop_global ~overlapped:false dd src in
  let overlapped = Dd.hop_global ~overlapped:true dd src in
  Alcotest.(check (float 0.)) "overlap split exact" 0.
    (Field.max_abs_diff simple overlapped)

let test_dd_full_wilson_apply () =
  let geom = Geometry.create [| 4; 2; 2; 4 |] in
  let gauge = Gauge.random geom (rng ()) in
  let dom = Domain.create geom [| 2; 1; 1; 2 |] in
  let dd = Dd.create dom gauge in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let n = Geometry.volume geom * 24 in
  let src = Field.create n in
  Field.gaussian (rng ()) src;
  let oracle = Field.create n in
  Dirac.Wilson.apply w ~mass:0.3 ~src ~dst:oracle;
  let got = Dd.apply_global dd ~mass:0.3 src in
  Alcotest.(check bool) "full operator matches" true
    (Field.max_abs_diff oracle got < 1e-12)

let test_dd_solve_matches_single_domain () =
  (* the full distributed CG path: halo exchange inside every operator
     application, allreduce for every inner product *)
  let geom = Geometry.create [| 4; 4; 2; 4 |] in
  let gauge = Gauge.warm geom (rng ()) ~eps:0.4 in
  let dom = Domain.create geom [| 2; 2; 1; 1 |] in
  let dd = Dd.create dom gauge in
  let solver = Vrank.Dd_solve.create dd ~mass:0.3 in
  let n = Geometry.volume geom * 24 in
  let b = Field.create n in
  Field.gaussian (rng ()) b;
  let x_dd, st, `Exchanges ex, `Allreduces ar =
    Vrank.Dd_solve.solve_normal ~tol:1e-10 solver ~b_global:b
  in
  Alcotest.(check bool) "converged" true st.Solver.Cg.converged;
  Alcotest.(check bool) "exchanges happened" true (ex >= st.Solver.Cg.iterations);
  (* two distributed dots per CG iteration plus setup reductions *)
  Alcotest.(check bool) "allreduces happened" true (ar >= 2 * st.Solver.Cg.iterations);
  (* single-domain oracle: CGNE on the same system *)
  let w = Dirac.Wilson.of_geometry geom gauge in
  let apply src dst = Dirac.Wilson.apply w ~mass:0.3 ~src ~dst in
  let rhs = Field.create n in
  let t1 = Field.create n in
  Dirac.Gamma.apply_gamma5 b t1;
  let t2 = Field.create n in
  apply t1 t2;
  Dirac.Gamma.apply_gamma5 t2 rhs;
  let apply_normal src dst =
    let u1 = Field.create n in
    apply src u1;
    let u2 = Field.create n in
    Dirac.Gamma.apply_gamma5 u1 u2;
    let u3 = Field.create n in
    apply u2 u3;
    Dirac.Gamma.apply_gamma5 u3 dst
  in
  let x_single, _ =
    Solver.Cg.solve ~apply:apply_normal ~b:rhs ~tol:1e-10 ~max_iter:5000
      ~flops_per_apply:1. ()
  in
  let d = Field.create n in
  Field.sub x_dd x_single d;
  let rel = sqrt (Field.norm2 d /. Field.norm2 x_single) in
  Alcotest.(check bool) (Printf.sprintf "dd = single (rel %g)" rel) true (rel < 1e-7)

let test_dd_solve_trivial_grid () =
  (* 1-rank decomposition must agree exactly too (self-exchange path) *)
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let gauge = Gauge.warm geom (rng ()) ~eps:0.3 in
  let dom = Domain.create geom [| 1; 1; 1; 1 |] in
  let dd = Dd.create dom gauge in
  let solver = Vrank.Dd_solve.create dd ~mass:0.5 in
  let n = Geometry.volume geom * 24 in
  let b = Field.create n in
  Field.gaussian (rng ()) b;
  let x, st, _, _ = Vrank.Dd_solve.solve_normal ~tol:1e-10 solver ~b_global:b in
  Alcotest.(check bool) "converged" true st.Solver.Cg.converged;
  (* verify M^dag M x = M^dag b in the single-domain picture *)
  let w = Dirac.Wilson.of_geometry geom gauge in
  let mx = Field.create n in
  Dirac.Wilson.apply w ~mass:0.5 ~src:x ~dst:mx;
  let diff = Field.create n in
  Field.sub mx b diff;
  (* x solves the normal equations; M x = b because M is invertible *)
  Alcotest.(check bool) "M x = b" true
    (sqrt (Field.norm2 diff /. Field.norm2 b) < 1e-7)

(* the distributed solve reports like every other Cg.solve: a true
   residual, flops, local writes the ghost epochs see, and the global
   sums dd_solve.mli states *)
let test_dd_solve_reports_like_cg () =
  let geom = Geometry.create [| 4; 4; 2; 4 |] in
  let gauge = Gauge.warm geom (rng ()) ~eps:0.4 in
  let dom = Domain.create geom [| 2; 2; 1; 1 |] in
  let dd = Dd.create dom gauge in
  let solver = Vrank.Dd_solve.create dd ~mass:0.3 in
  let n = Geometry.volume geom * 24 in
  let b = Field.create n in
  Field.gaussian (rng ()) b;
  let strict = !Comm.strict in
  Comm.strict := true;
  let (_, st, _, `Allreduces ar), (_, st0, _, `Allreduces ar0) =
    Fun.protect
      ~finally:(fun () -> Comm.strict := strict)
      (fun () ->
        let solve b = Vrank.Dd_solve.solve_normal ~tol:1e-10 solver ~b_global:b in
        let first = solve b in
        (first, solve (Field.create n)))
  in
  (match st.Solver.Cg.true_relative_residual with
  | Some r -> Alcotest.(check bool) (Printf.sprintf "true residual %g" r) true (r <= 1e-9)
  | None -> Alcotest.fail "no true residual");
  Alcotest.(check bool) "flops counted" true (st.Solver.Cg.flops > 0.);
  let comm = Dd.comm dd in
  for r = 0 to Domain.n_ranks dom - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "rank %d writes marked" r)
      true
      (Comm.write_epoch comm r > 0)
  done;
  Alcotest.(check int) "halo audit clean" 0
    (List.length (Check.Halo_check.audit comm));
  Alcotest.(check int) "2 iterations + 2 allreduces"
    ((2 * st.Solver.Cg.iterations) + 2)
    ar;
  Alcotest.(check int) "zero b: 0 iterations" 0 st0.Solver.Cg.iterations;
  Alcotest.(check int) "zero b: 1 allreduce" 1 (ar0 - ar)

(* [`Allreduces] counts the global sums a solve ran: the launches with a
   reduction in its recording, all over the rank-major vector, except
   the host-side check of the caller's global b *)
let test_dd_solve_allreduces_recorded () =
  let geom = Geometry.create [| 4; 4; 2; 4 |] in
  let gauge = Gauge.warm geom (rng ()) ~eps:0.4 in
  let dom = Domain.create geom [| 2; 2; 1; 1 |] in
  let solver = Vrank.Dd_solve.create (Dd.create dom gauge) ~mass:0.3 in
  let n = Geometry.volume geom * 24 in
  let b = Field.create n in
  Field.gaussian (rng ()) b;
  let last = ref 0 in
  List.iter
    (fun (what, b) ->
      let (_, _, _, `Allreduces ar), events =
        Util.Prof.record (fun () ->
            Vrank.Dd_solve.solve_normal ~tol:1e-10 solver ~b_global:b)
      in
      let global_sum = function
        | Util.Prof.Launch l ->
          let ops = l.Util.Prof.operands in
          List.exists (fun o -> o.Util.Prof.role = Util.Prof.Reduce) ops
          && not
               (List.exists
                  (fun o ->
                    match o.Util.Prof.vec with Some v -> v == b | None -> false)
                  ops)
        | _ -> false
      in
      Alcotest.(check int)
        (what ^ ": Allreduces = recorded global sums")
        (List.length (List.filter global_sum events))
        (ar - !last);
      last := ar)
    [ ("gaussian b", b); ("zero b", Field.create n) ]

(* A NaN or +Inf in b raises at entry instead of returning x = 0
   after 0 iterations *)
let test_dd_solve_rejects_non_finite () =
  let geom = Geometry.create [| 2; 2; 2; 4 |] in
  let gauge = Gauge.warm geom (rng ()) ~eps:0.3 in
  let dd = Dd.create (Domain.create geom [| 2; 1; 1; 1 |]) gauge in
  let solver = Vrank.Dd_solve.create dd ~mass:0.5 in
  List.iter
    (fun v ->
      let b = Field.create (Geometry.volume geom * 24) in
      Field.gaussian (rng ()) b;
      b.{5} <- v;
      Alcotest.check_raises
        (Printf.sprintf "%g in b" v)
        (Invalid_argument "Dd_solve.solve_normal: non-finite b")
        (fun () -> ignore (Vrank.Dd_solve.solve_normal solver ~b_global:b)))
    [ Float.nan; Float.infinity ]

let test_layout_lengths_checked () =
  (* half-length fields used to be read past their end, so
     solve_normal "converged" on whatever memory lay beyond b *)
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let dom = Domain.create geom [| 2; 1; 1; 1 |] in
  let n = Geometry.volume geom * 24 in
  let half = Field.create (n / 2) in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  raises "Domain.scatter_field" (fun () -> Domain.scatter_field dom ~dof:24 half 0);
  raises "Domain.gather_field" (fun () ->
      Domain.gather_field dom ~dof:24
        (Array.init (Domain.n_ranks dom) (fun r ->
             let rg = Domain.rank_geometry dom r in
             Field.create (rg.Domain.local_volume * 24 / 2))));
  let comm = Comm.create dom ~dof:24 in
  raises "Comm.scatter" (fun () -> Comm.scatter comm half (Comm.create_fields comm));
  (* post packed and delivered ghosts through local-length fields
     unchecked: far past their end under Staged, a segfault under
     Zero_copy *)
  List.iter
    (fun transport ->
      let comm = Comm.create ~transport dom ~dof:24 in
      let name = Machine.Transport.name transport in
      let locals =
        Array.init (Domain.n_ranks dom) (fun r ->
            Field.create ((Domain.rank_geometry dom r).Domain.local_volume * 24))
      in
      raises (name ^ " local-length fields") (fun () ->
          Comm.halo_exchange comm locals);
      raises (name ^ " one rank short") (fun () ->
          Comm.halo_exchange comm
            (Array.sub (Comm.create_fields comm) 0 (Domain.n_ranks dom - 1)));
      Alcotest.(check int) (name ^ " no message counted") 0
        (Comm.stats comm).Comm.messages)
    [ Comm.Staged; Comm.Zero_copy; Comm.Double_buffered ];
  (* a gauge field of another lattice: the wrong links on 4^3x8, reads
     past the link buffer on 2^4 *)
  List.iter
    (fun dims ->
      raises "Dd_wilson.create" (fun () ->
          Dd.create dom (Gauge.unit (Geometry.create dims))))
    [ [| 4; 4; 4; 8 |]; [| 2; 2; 2; 2 |] ];
  let solver =
    Vrank.Dd_solve.create (Dd.create dom (Gauge.warm geom (rng ()) ~eps:0.3)) ~mass:0.3
  in
  Field.gaussian (rng ()) half;
  raises "Dd_solve.solve_normal" (fun () ->
      ignore (Vrank.Dd_solve.solve_normal ~tol:1e-6 solver ~b_global:half))

let test_comm_stats_accumulate () =
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let dom = Domain.create geom [| 2; 1; 1; 1 |] in
  let comm = Comm.create dom ~dof:2 in
  let fields = Comm.create_fields comm in
  Comm.halo_exchange comm fields;
  Comm.halo_exchange comm fields;
  Alcotest.(check int) "2 full exchanges" 2 (Comm.stats comm).Comm.full_exchanges

let test_partial_exchange_counted_separately () =
  (* a ?faces-subset exchange must not inflate the full-exchange count
     that halo_bytes_per_rank estimates are compared against *)
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let dom = Domain.create geom [| 2; 2; 1; 1 |] in
  let comm = Comm.create dom ~dof:2 in
  let fields = Comm.create_fields comm in
  Comm.halo_exchange ~faces:[| 0; 1 |] comm fields;
  Comm.halo_exchange comm fields;
  let st = Comm.stats comm in
  Alcotest.(check int) "1 full" 1 st.Comm.full_exchanges;
  Alcotest.(check int) "1 partial" 1 st.Comm.partial_exchanges

let test_post_rejects_bad_faces () =
  (* a face id outside 0..7, or one listed twice, is rejected before
     any exchange or message is counted *)
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let dom = Domain.create geom [| 2; 2; 1; 1 |] in
  let comm = Comm.create dom ~dof:2 in
  let fields = Comm.create_fields comm in
  let counted () =
    let s = Comm.stats comm in
    (s.Comm.full_exchanges, s.Comm.partial_exchanges, s.Comm.messages, s.Comm.bytes)
  in
  let before = counted () in
  List.iter
    (fun (label, faces) ->
      (match Comm.halo_exchange ~faces comm fields with
      | () -> Alcotest.failf "%s accepted" label
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names Comm.post" label msg)
          true
          (String.starts_with ~prefix:"Comm.post:" msg));
      Alcotest.(check bool) (label ^ ": stats unchanged") true (counted () = before))
    [
      ("face id 8", [| 0; 8 |]);
      ("face id -1", [| -1 |]);
      ("repeated face", [| 3; 1; 3 |]);
    ]

(* Every Comm entry checks its arguments before anything is counted,
   written or recorded, as Comm.post does *)
let test_entries_reject_bad_arguments () =
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let dom = Domain.create geom [| 2; 2; 1; 1 |] in
  let comm = Comm.create dom ~dof:2 in
  let fields = Comm.create_fields comm in
  let global = Field.create (Geometry.volume geom * 2) in
  Field.gaussian (rng ()) global;
  Comm.scatter comm global fields;
  let h = Comm.post comm fields in
  let state () =
    let s = Comm.stats comm in
    ( (s.Comm.full_exchanges, s.Comm.partial_exchanges, s.Comm.messages, s.Comm.bytes),
      List.init (Comm.n_ranks comm) (Comm.write_epoch comm),
      Comm.pending_faces h )
  in
  let before = state () in
  List.iter
    (fun (expected, f) ->
      let raised, events =
        Util.Prof.record (fun () ->
            match f () with () -> "" | exception Invalid_argument msg -> msg)
      in
      Alcotest.(check string) "raises" expected raised;
      Alcotest.(check int) (expected ^ ": nothing recorded") 0 (List.length events);
      Alcotest.(check bool) (expected ^ ": stats and epochs unchanged") true
        (state () = before))
    [
      ("Comm.complete: face id 8 outside 0..7", fun () -> Comm.complete h ~face:8);
      ("Comm.complete: face id -2 outside 0..7", fun () -> Comm.complete h ~face:(-2));
      ("Comm.complete: face id -1 outside 0..7", fun () -> Comm.complete h ~face:(-1));
      ( "Comm.scatter: 2 fields for 4 ranks",
        fun () -> Comm.scatter comm global (Array.sub fields 0 2) );
      ("Comm.mark_written: rank 7 outside 0..3", fun () -> Comm.mark_written comm 7);
    ];
  Comm.complete_all h

let test_post_stages_complete_delivers () =
  (* between post and complete the ghosts must still hold the OLD data;
     completing a face delivers exactly that face's ghosts *)
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let dom = Domain.create geom [| 2; 2; 1; 1 |] in
  let comm = Comm.create dom ~dof:1 in
  let global = Field.of_array (Array.init (Geometry.volume geom) float_of_int) in
  let fields = Comm.create_fields comm in
  Comm.scatter comm global fields;
  let h = Comm.post comm fields in
  Alcotest.(check bool) "not finished" false (Comm.finished h);
  Alcotest.(check (list int)) "all faces pending" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (Comm.pending_faces h);
  (* ghosts still zero: post stages into message payloads, not ghosts *)
  for r = 0 to Domain.n_ranks dom - 1 do
    let rg = Domain.rank_geometry dom r in
    for e = rg.Domain.local_volume to rg.Domain.ext_volume - 1 do
      Alcotest.(check (float 0.))
        (Printf.sprintf "rank %d ghost %d untouched" r e)
        0.
        (Bigarray.Array1.get fields.(r) e)
    done
  done;
  (* complete face by face in a scrambled order; each completion makes
     exactly that face fresh *)
  Array.iter
    (fun face ->
      Comm.complete h ~face;
      for r = 0 to Domain.n_ranks dom - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "rank %d face %s fresh" r (Comm.face_label face))
          true
          (Comm.ghost_fresh comm ~rank:r ~face)
      done)
    [| 5; 0; 3; 7; 1; 6; 2; 4 |];
  Alcotest.(check bool) "finished" true (Comm.finished h);
  (* and the delivered values are the global sites *)
  for r = 0 to Domain.n_ranks dom - 1 do
    let rg = Domain.rank_geometry dom r in
    for e = 0 to rg.Domain.ext_volume - 1 do
      Alcotest.(check (float 0.))
        (Printf.sprintf "rank %d ext %d" r e)
        (float_of_int rg.Domain.local_to_global.(e))
        (Bigarray.Array1.get fields.(r) e)
    done
  done

let test_double_complete_raises () =
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let dom = Domain.create geom [| 2; 1; 1; 1 |] in
  let comm = Comm.create dom ~dof:1 in
  let fields = Comm.create_fields comm in
  let h = Comm.post comm fields in
  Comm.complete h ~face:0;
  Alcotest.check_raises "double complete"
    (Invalid_argument "Comm.complete: face x+ is not in flight") (fun () ->
      Comm.complete h ~face:0);
  Comm.complete_all h

let test_send_buffer_race_detected () =
  (* writing local sites between post and complete is the nonblocking
     send-buffer race: counted always, fatal in strict mode *)
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let dom = Domain.create geom [| 2; 1; 1; 1 |] in
  let comm = Comm.create dom ~dof:1 in
  let fields = Comm.create_fields comm in
  let h = Comm.post comm fields in
  Comm.mark_written comm 0;
  Comm.complete_all h;
  Alcotest.(check bool) "races counted" true
    ((Comm.stats comm).Comm.send_buffer_races > 0);
  (* ghosts filled from rank 0's in-flight data are stale against its
     new epoch *)
  Alcotest.(check bool) "stale faces exist" true
    (List.exists (fun r -> Comm.stale_faces comm r <> []) [ 0; 1 ]);
  let h2 = Comm.post comm fields in
  Comm.mark_written comm 0;
  Comm.strict := true;
  let raised =
    try
      Comm.complete_all h2;
      false
    with Invalid_argument _ -> true
  in
  Comm.strict := false;
  Alcotest.(check bool) "strict mode raises" true raised

let test_overlapped_orders_and_granularities () =
  (* fine and coarse completion, in default and scrambled face orders,
     all bit-for-bit equal to the blocking path *)
  let geom = Geometry.create [| 4; 4; 4; 4 |] in
  let gauge = Gauge.random geom (rng ()) in
  let dom = Domain.create geom [| 2; 2; 2; 1 |] in
  let dd = Dd.create dom gauge in
  let src = Field.create (Geometry.volume geom * 24) in
  Field.gaussian (rng ()) src;
  let simple = Dd.hop_global ~overlapped:false dd src in
  List.iter
    (fun (label, granularity, order) ->
      let got = Dd.hop_global ~overlapped:true ~granularity ~order dd src in
      Alcotest.(check (float 0.)) label 0. (Field.max_abs_diff simple got))
    [
      ("fine default order", Machine.Policy.Fine, Dd.default_order);
      ("fine reversed", Machine.Policy.Fine, [| 7; 6; 5; 4; 3; 2; 1; 0 |]);
      ("fine scrambled", Machine.Policy.Fine, [| 3; 6; 0; 5; 2; 7; 1; 4 |]);
      ("coarse default order", Machine.Policy.Coarse, Dd.default_order);
      ("coarse scrambled", Machine.Policy.Coarse, [| 4; 1; 7; 2; 0; 5; 3; 6 |]);
    ]

let test_overlapped_strict_mode_clean () =
  (* satellite check: the per-face freshness asserts in hop_overlapped
     must NOT fire on a correct schedule, in strict mode *)
  let geom = Geometry.create [| 4; 4; 2; 2 |] in
  let gauge = Gauge.random geom (rng ()) in
  let dom = Domain.create geom [| 2; 2; 1; 1 |] in
  let dd = Dd.create dom gauge in
  let src = Field.create (Geometry.volume geom * 24) in
  Field.gaussian (rng ()) src;
  Comm.strict := true;
  let finish () = Comm.strict := false in
  (try
     ignore (Dd.hop_global ~overlapped:true ~granularity:Machine.Policy.Fine dd src);
     ignore (Dd.hop_global ~overlapped:true ~granularity:Machine.Policy.Coarse dd src)
   with e ->
     finish ();
     raise e);
  finish ()

let suite =
  [
    Alcotest.test_case "exchange fills ghosts" `Quick test_exchange_fills_ghosts;
    Alcotest.test_case "byte accounting" `Quick test_exchange_byte_accounting;
    Alcotest.test_case "dd wilson = oracle (6 grids)" `Quick test_dd_wilson_grids;
    Alcotest.test_case "overlapped = simple" `Quick test_dd_overlapped_equals_simple;
    Alcotest.test_case "dd full operator" `Quick test_dd_full_wilson_apply;
    Alcotest.test_case "dd CG = single-domain" `Quick test_dd_solve_matches_single_domain;
    Alcotest.test_case "dd CG trivial grid" `Quick test_dd_solve_trivial_grid;
    Alcotest.test_case "dd CG rejects non-finite b" `Quick
      test_dd_solve_rejects_non_finite;
    Alcotest.test_case "dd CG reports like Cg.solve" `Quick
      test_dd_solve_reports_like_cg;
    Alcotest.test_case "dd CG allreduces = recorded global sums" `Quick
      test_dd_solve_allreduces_recorded;
    Alcotest.test_case "layout lengths checked" `Quick test_layout_lengths_checked;
    Alcotest.test_case "stats accumulate" `Quick test_comm_stats_accumulate;
    Alcotest.test_case "post rejects bad face ids" `Quick test_post_rejects_bad_faces;
    Alcotest.test_case "entries reject bad arguments" `Quick
      test_entries_reject_bad_arguments;
    Alcotest.test_case "partial vs full exchanges" `Quick
      test_partial_exchange_counted_separately;
    Alcotest.test_case "post stages, complete delivers" `Quick
      test_post_stages_complete_delivers;
    Alcotest.test_case "double complete raises" `Quick test_double_complete_raises;
    Alcotest.test_case "send-buffer race" `Quick test_send_buffer_race_detected;
    Alcotest.test_case "orders x granularities = blocking" `Quick
      test_overlapped_orders_and_granularities;
    Alcotest.test_case "strict mode clean overlap" `Quick
      test_overlapped_strict_mode_clean;
  ]
