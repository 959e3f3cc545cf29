(* Plans recorded from live code. A Util.Prof recording is the launch
   sequence a solver really ran — kernel, operands by physical
   identity, geometry, block, sweeps, quantize points — so the plan the
   analyzer checks has one source, the code. [plan] names the vectors
   in order of first appearance, declares every one (half when the
   recording quantizes it, double otherwise) and seeds each vector
   read before it is written with the magnitudes it held at that read.
   [iteration] narrows a recording to one CG iteration.

   The catalog records tiny solves on one fixed-seed lattice: a hot
   4³×8 gauge field, its Möbius red-black operator at L5 = 4, and
   right-hand sides whose entries all lie within [1e-2, 1e1] in
   magnitude — the source range the half codec is checked against. *)

module P = Util.Prof
module F = Linalg.Field
module Mobius = Dirac.Mobius
open Plan_ir

let vecs = function
  | P.Launch l -> List.filter_map (fun o -> o.P.vec) l.P.operands
  | P.Quantize (v, _) -> [ v ]
  | P.Mark _ | P.Halo _ -> []

let mem v = List.exists (( == ) v)

let plan ?fusion pname events =
  (* (vec, name, range) in reverse order of first appearance *)
  let seen = ref [] in
  let name range v =
    match List.find_opt (fun (v', _, _) -> v' == v) !seen with
    | Some (_, nm, _) -> nm
    | None ->
      let nm = Printf.sprintf "v%d" (List.length !seen) in
      seen := (v, nm, range) :: !seen;
      nm
  in
  let scalars = ref 0 in
  let arg (o : P.operand) =
    match o.P.vec with
    | Some v -> (name o.P.range v, o.P.role)
    | None ->
      incr scalars;
      (Printf.sprintf "s%d" !scalars, Reduce)
  in
  let steps =
    List.filter_map
      (function
        | P.Launch l ->
          Some
            (Launch
               (kernel ?geometry:l.P.geometry ?block:l.P.block ~sweeps:l.P.sweeps
                  ~args:(List.map arg l.P.operands) l.P.kernel))
        | P.Quantize (v, qblock) ->
          Some (Quantize { qbuf = name None v; qblock })
        | P.Mark _ | P.Halo _ -> None)
      events
  in
  let half nm =
    List.find_map
      (function Quantize { qbuf; qblock } when qbuf = nm -> Some qblock | _ -> None)
      steps
  in
  let buffers =
    List.rev_map
      (fun (_, nm, range) ->
        buffer ?range
          ~prec:(match half nm with Some b -> Half b | None -> Double)
          nm)
      !seen
  in
  let n =
    List.fold_left (fun acc -> function P.Launch l -> max acc l.P.n | _ -> acc) 0 events
  in
  Plan_ir.plan ?fusion ~n ~buffers ~steps pname

(* ---- one iteration of right-hand side 0 ---- *)

let batched = function
  | P.Launch l -> List.exists (fun o -> o.P.rhs > 0) l.P.operands
  | _ -> false

(* Keep right-hand side 0 of a batched window: slot 0 of each batched
   launch, and the single launches over the vectors those slots reach. *)
let project window =
  if not (List.exists batched window) then window
  else begin
    let slot0 = function
      | P.Launch l as e when batched e ->
        P.Launch { l with P.operands = List.filter (fun o -> o.P.rhs = 0) l.P.operands }
      | e -> e
    in
    let window = List.map (fun e -> if batched e then (slot0 e, true) else (e, false)) window in
    let rec close rhs0 =
      let grown =
        List.fold_left
          (fun acc (e, _) ->
            if List.exists (fun v -> mem v acc) (vecs e) then
              List.filter (fun v -> not (mem v acc)) (vecs e) @ acc
            else acc)
          rhs0 window
      in
      if List.length grown = List.length rhs0 then rhs0 else close grown
    in
    let rhs0 = close (List.concat_map (fun (e, b) -> if b then vecs e else []) window) in
    List.filter_map
      (fun (e, b) -> if b || List.exists (fun v -> mem v rhs0) (vecs e) then Some e else None)
      window
  end

let iteration events =
  let rec from_mark = function
    | P.Mark (0, _) :: rest -> rest
    | _ :: rest -> from_mark rest
    | [] -> invalid_arg "Plan_record.iteration: fewer than two marks"
  in
  let rec to_mark = function
    | P.Mark (0, _) :: _ -> []
    | e :: rest -> e :: to_mark rest
    | [] -> invalid_arg "Plan_record.iteration: fewer than two marks"
  in
  project (to_mark (from_mark events))

(* ---- the catalog ---- *)

let recorded ?fusion name f = plan ?fusion name (snd (P.record f))

(* Priced, and batched, CG plans keep one iteration. *)
let iterated ?fusion name f = plan ?fusion name (iteration (snd (P.record f)))

(* A field whose every entry has magnitude in [1e-2, 1e1]. *)
let source rng n =
  F.of_array
    (Array.init n (fun _ ->
         let m = 10. ** Util.Rng.uniform rng ~lo:(-2.) ~hi:1. in
         if Util.Rng.bool rng then m else -.m))

type lattice = { dwf : Solver.Dwf_solve.t; eo : Mobius.eo; b : F.t; b' : F.t }

let lattice =
  lazy
    (let rng = Util.Rng.create 20_180_920 in
     let geom = Lattice.Geometry.create [| 4; 4; 4; 8 |] in
     let params = Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass:0.1 in
     let dwf = Solver.Dwf_solve.create params geom (Lattice.Gauge.random geom rng) in
     let eo = dwf.Solver.Dwf_solve.eo in
     let n = Mobius.eo_field_length eo in
     { dwf; eo; b = source rng n; b' = source rng n })

let normal l src dst = Mobius.apply_schur_normal l.eo ~src ~dst

let normal_dot l src dst =
  Mobius.apply_schur_normal_tail l.eo ~src ~dst ~tail:(Linalg.Fused.tail ~dot:src ())

let cg ~fused () =
  let l = Lazy.force lattice in
  iterated ~fusion:fused (if fused then "cg-fused" else "cg") (fun () ->
      Solver.Cg.solve ~fused ~apply_dot:(normal_dot l) ~apply:(normal l) ~b:l.b ~tol:1e-12
        ~max_iter:2 ~flops_per_apply:0. ())

let cg_multi ~fused () =
  let l = Lazy.force lattice in
  iterated ?fusion:(if fused then None else Some false)
    (if fused then "cg-tail-multi-fused" else "cg-tail-multi")
    (fun () ->
      Solver.Cg.solve_multi ~fused
        ~apply:(fun srcs dsts -> Mobius.apply_schur_normal_multi l.eo ~srcs ~dsts)
        ~bs:[| l.b; l.b' |] ~tol:1e-12 ~max_iter:2 ~flops_per_apply:0. ())

(* What the tuner times for a fusion candidate. A runner that rejects
   the candidate's geometry stops at that launch, which the recorder
   saw before it ran, so the analyzer still judges it. *)
let fusion_tail ~n ~mode ~geometry =
  let vec fill =
    let v = F.create n in
    F.fill v fill;
    v
  in
  let p = vec 1e-3 and ap = vec 1e-3 and x = vec 0. and r = vec 1e-3 in
  let launch = { Autotune.Variants.baseline with mode; geometry } in
  let fusion, name =
    match mode with
    | Linalg.Fused.Unfused -> (Some false, "cg-tail")
    | Linalg.Fused.Tail_fused -> (Some true, "cg-tail-fused")
    | Linalg.Fused.Fused -> (None, "cg-tail-separate")
  in
  recorded ?fusion name (fun () ->
      try Autotune.Variants.run_fusion ~p ~ap ~x ~r launch with Invalid_argument _ -> ())

let mixed ~fused () =
  let l = Lazy.force lattice in
  let config = { Solver.Mixed.default_config with max_iter = 1 } in
  recorded (if fused then "mixed-fused" else "mixed") (fun () ->
      Solver.Mixed.solve ~config ~fused ~apply:(normal l) ~b:l.b ~flops_per_apply:0. ())

let bicgstab ~fused () =
  let l = Lazy.force lattice in
  recorded (if fused then "bicgstab-fused" else "bicgstab") (fun () ->
      Solver.Bicgstab.solve ~fused
        ~apply:(fun src dst -> Mobius.apply_schur l.eo ~src ~dst)
        ~b:l.b ~tol:1e-12 ~max_iter:1 ~flops_per_apply:0. ())

let dwf ~mixed () =
  let l = Lazy.force lattice in
  let rhs = source (Util.Rng.create 5) (Solver.Dwf_solve.field_length l.dwf) in
  let precision =
    if mixed then Solver.Dwf_solve.Mixed Solver.Mixed.default_config else Double
  in
  recorded (if mixed then "dwf-mixed" else "dwf") (fun () ->
      Solver.Dwf_solve.solve ~precision ~fused:mixed ~max_iter:1 l.dwf ~rhs)

(* A rank-4 space: the launches do not depend on the basis values. *)
let deflate () =
  let l = Lazy.force lattice in
  let rng = Util.Rng.create 4 in
  let space =
    Solver.Deflate.create
      ~basis:(Array.init 4 (fun _ -> source rng (F.length l.b)))
      ~values:[| 0.1; 0.2; 0.3; 0.4 |] ~config_hash:0 ()
  in
  recorded "deflate" (fun () ->
      Solver.Cg.solve ~deflate:space ~apply:(normal l) ~b:l.b ~tol:1e-12 ~max_iter:0
        ~flops_per_apply:0. ())

(* Pooled launches run on 4 lanes of a pool of their own. *)
let on_lanes f =
  let pool = Util.Pool.create ~domains:4 () in
  Fun.protect ~finally:(fun () -> Util.Pool.shutdown pool) (fun () -> f pool)

let wilson dims =
  let rng = Util.Rng.create 11 in
  let geom = Lattice.Geometry.create dims in
  let w = Dirac.Wilson.of_geometry geom (Lattice.Gauge.random geom rng) in
  (w, fun () -> source rng (Lattice.Geometry.volume geom * Dirac.Wilson.floats_per_site))

let wilson_hop ~dims ~chunk ~tail =
  let w, field = wilson dims in
  let src = field () and dst = field () and out = field () and q = field () in
  on_lanes (fun pool ->
      if tail then
        recorded "wilson-hop-tail" (fun () ->
            Dirac.Wilson.hop_tail ~pool ~chunk w ~src ~dst
              ~tail:(Linalg.Fused.tail ~xpay:(out, 0.5) ~dot:q ()))
      else recorded "wilson-hop" (fun () -> Dirac.Wilson.hop ~pool ~chunk w ~src ~dst))

let wilson_hop_multi () =
  let w, field = wilson [| 4; 4; 4; 4 |] in
  let srcs = Array.init 4 (fun _ -> field ()) and dsts = Array.init 4 (fun _ -> field ()) in
  recorded "wilson-hop-multi" (fun () -> Dirac.Wilson.hop_multi w ~srcs ~dsts)

let mobius_hop () =
  let l = Lazy.force lattice in
  let dst = Mobius.create_eo_field l.eo in
  recorded "mobius-hop" (fun () -> Mobius.hop_eo l.eo ~to_parity:0 ~src:l.b ~dst)

let pooled_axpy ~n ~chunk =
  let x = source (Util.Rng.create 3) n and y = F.create n in
  on_lanes (fun pool ->
      recorded "pooled-axpy" (fun () -> F.axpy ~pool ~chunk 0.5 x y))

let catalog : (string * (unit -> plan)) list =
  let tail mode () = fusion_tail ~n:(1 lsl 16) ~mode ~geometry:None in
  [
    ("cg", cg ~fused:false);
    ("cg-fused", cg ~fused:true);
    ("cg-tail", tail Linalg.Fused.Unfused);
    ("cg-tail-fused", tail Linalg.Fused.Tail_fused);
    ("cg-tail-separate", tail Linalg.Fused.Fused);
    ("cg-tail-multi", cg_multi ~fused:false);
    ("cg-tail-multi-fused", cg_multi ~fused:true);
    ("mixed", mixed ~fused:false);
    ("mixed-fused", mixed ~fused:true);
    ("bicgstab", bicgstab ~fused:false);
    ("bicgstab-fused", bicgstab ~fused:true);
    ("dwf", dwf ~mixed:false);
    ("dwf-mixed", dwf ~mixed:true);
    ("deflate", deflate);
    ("wilson-hop", fun () -> wilson_hop ~dims:[| 8; 8; 8; 4 |] ~chunk:512 ~tail:false);
    ("wilson-hop-tail", fun () -> wilson_hop ~dims:[| 8; 8; 8; 4 |] ~chunk:512 ~tail:true);
    ("wilson-hop-multi", wilson_hop_multi);
    ("mobius-hop", mobius_hop);
    ("pooled-axpy", fun () -> pooled_axpy ~n:(1 lsl 16) ~chunk:4096);
  ]

let find name = List.assoc_opt name catalog
