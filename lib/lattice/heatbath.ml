(* Quenched SU(3) Monte Carlo for the Wilson gauge action:
   Cabibbo-Marinari pseudo-heatbath over the three SU(2) subgroups with
   Kennedy-Pendleton sampling, plus microcanonical overrelaxation.
   This generates the gluonic field configurations the workflow of
   Fig 2 starts from. *)

let subgroups = [| (0, 1); (0, 2); (1, 2) |]

(* Kennedy-Pendleton: sample a0 in [-1,1] with density
   sqrt(1-a0^2) exp(alpha a0). Returns a0. *)
let kennedy_pendleton rng ~alpha =
  if alpha < 1e-8 then
    (* Free limit: density sqrt(1-a0^2); sample by rejection. *)
    let rec loop () =
      let x = Util.Rng.uniform rng ~lo:(-1.) ~hi:1. in
      if Util.Rng.float rng <= sqrt (1. -. (x *. x)) then x else loop ()
    in
    loop ()
  else begin
    let rec loop n =
      if n > 10_000 then 1. -. (2. *. Util.Rng.float rng /. alpha)
      else begin
        let r1 = 1. -. Util.Rng.float rng in
        let r2 = 1. -. Util.Rng.float rng in
        let r3 = 1. -. Util.Rng.float rng in
        let x1 = -.log r1 /. alpha in
        let x2 = -.log r2 /. alpha in
        let c = cos (2. *. Float.pi *. r3) in
        let delta = x1 +. (x2 *. c *. c) in
        let r4 = Util.Rng.float rng in
        if r4 *. r4 <= 1. -. (delta /. 2.) then 1. -. delta else loop (n + 1)
      end
    in
    let a0 = loop 0 in
    if a0 < -1. then -1. else if a0 > 1. then 1. else a0
  end

(* Uniform point on the 2-sphere of radius r. *)
let random_sphere rng r =
  let cos_theta = Util.Rng.uniform rng ~lo:(-1.) ~hi:1. in
  let sin_theta = sqrt (1. -. (cos_theta *. cos_theta)) in
  let phi = Util.Rng.uniform rng ~lo:0. ~hi:(2. *. Float.pi) in
  (r *. sin_theta *. cos phi, r *. sin_theta *. sin phi, r *. cos_theta)

(* Quaternion helpers: (a0, a1, a2, a3) <-> su2 2x2. *)
let quat_mul (a0, a1, a2, a3) (b0, b1, b2, b3) =
  ( (a0 *. b0) -. (a1 *. b1) -. (a2 *. b2) -. (a3 *. b3),
    (a0 *. b1) +. (a1 *. b0) +. (a2 *. b3) -. (a3 *. b2),
    (a0 *. b2) -. (a1 *. b3) +. (a2 *. b0) +. (a3 *. b1),
    (a0 *. b3) +. (a1 *. b2) -. (a2 *. b1) +. (a3 *. b0) )

let quat_conj (a0, a1, a2, a3) = (a0, -.a1, -.a2, -.a3)

let quat_norm (a0, a1, a2, a3) =
  sqrt ((a0 *. a0) +. (a1 *. a1) +. (a2 *. a2) +. (a3 *. a3))

(* One subgroup update of one link by heatbath, in place on [u]. [w]
   is U * staple projected onto the (p,q) subgroup as an unnormalized
   quaternion. *)
let heatbath_subgroup rng ~beta u staple_m (p, q) =
  let w = Linalg.Su3.extract_su2_mul ~p ~q u staple_m in
  let k = quat_norm w in
  if k < 1e-14 then begin
    (* Degenerate staple: any SU(2) element is equally likely. *)
    let a0 = Util.Rng.uniform rng ~lo:(-1.) ~hi:1. in
    let a1, a2, a3 = random_sphere rng (sqrt (1. -. (a0 *. a0))) in
    Linalg.Su3.embed_su2_mul ~p ~q (a0, a1, a2, a3) u
  end
  else begin
    let (w0, w1, w2, w3) = w in
    let wbar = (w0 /. k, w1 /. k, w2 /. k, w3 /. k) in
    (* Want alpha with P(alpha) ~ exp((beta/3) k Re tr_2(alpha wbar)).
       Substitute X = alpha*wbar: sample X with P ~ exp(2 (beta/3) k x0),
       then alpha = X wbar^dag. *)
    let alpha_kp = 2. *. beta *. k /. 3. in
    let x0 = kennedy_pendleton rng ~alpha:alpha_kp in
    let x1, x2, x3 = random_sphere rng (sqrt (Float.max 0. (1. -. (x0 *. x0)))) in
    let alpha = quat_mul (x0, x1, x2, x3) (quat_conj wbar) in
    Linalg.Su3.embed_su2_mul ~p ~q alpha u
  end

(* Microcanonical overrelaxation in one subgroup, in place on [u]:
   alpha = (wbar^dag)^2 leaves Re tr(alpha V) invariant while moving
   the link maximally. *)
let overrelax_subgroup u staple_m (p, q) =
  let w = Linalg.Su3.extract_su2_mul ~p ~q u staple_m in
  let k = quat_norm w in
  if k < 1e-14 then ()
  else begin
    let (w0, w1, w2, w3) = w in
    let wbar_dag = quat_conj (w0 /. k, w1 /. k, w2 /. k, w3 /. k) in
    let alpha = quat_mul wbar_dag wbar_dag in
    Linalg.Su3.embed_su2_mul ~p ~q alpha u
  end

(* The buffers one link update uses, allocated once per sweep: the
   staple's scratch, the link being updated and its staple. *)
type work = { gs : Gauge.scratch; u : Linalg.Su3.t; a : Linalg.Su3.t }

let work () = { gs = Gauge.scratch (); u = Linalg.Su3.zero (); a = Linalg.Su3.zero () }

(* β = 0 is the free measure (the Kennedy–Pendleton free branch); a
   negative or non-finite β has no heatbath. *)
let check_beta name beta =
  if not (Float.is_finite beta && beta >= 0.) then
    invalid_arg (Printf.sprintf "%s: beta must be finite and >= 0 (got %g)" name beta)

(* Load the link and its staple, run [subgroup] over the three SU(2)
   subgroups in place, reunitarize and store. *)
let update_with w subgroup field site mu =
  Gauge.staple_into w.gs field site mu w.a;
  Gauge.get_into field site mu w.u;
  for i = 0 to Array.length subgroups - 1 do
    subgroup w.u w.a subgroups.(i)
  done;
  Linalg.Su3.reunitarize_in_place w.u;
  Gauge.set field site mu w.u

let update_link rng ~beta field site mu =
  check_beta "Heatbath.update_link" beta;
  update_with (work ()) (heatbath_subgroup rng ~beta) field site mu

let overrelax_link field site mu = update_with (work ()) overrelax_subgroup field site mu

(* Sweep in checkerboard order: all even sites of each direction first,
   then odd — the staple of a link never involves another link of the
   same (parity, direction) class, so the sweep is well-defined. One
   [work] serves every link of the sweep. *)
let sweep_with w subgroup field =
  let g = Gauge.geom field in
  for mu = 0 to Geometry.n_dim - 1 do
    for p = 0 to 1 do
      Geometry.iter_parity g p (fun site -> update_with w subgroup field site mu)
    done
  done

let sweep rng ~beta field =
  check_beta "Heatbath.sweep" beta;
  sweep_with (work ()) (heatbath_subgroup rng ~beta) field

let overrelax_sweep field = sweep_with (work ()) overrelax_subgroup field

type schedule = {
  beta : float;
  n_thermalize : int;  (* discarded sweeps *)
  n_decorrelate : int;  (* sweeps between saved configurations *)
  n_overrelax : int;  (* OR sweeps per heatbath sweep *)
}

let default_schedule ~beta =
  { beta; n_thermalize = 50; n_decorrelate = 10; n_overrelax = 3 }

(* Generate an ensemble of gauge configurations, reporting the
   plaquette history so tests can check thermalization. *)
let generate rng schedule geom ~n_configs =
  check_beta "Heatbath.generate" schedule.beta;
  List.iter
    (fun (name, n) ->
      if n < 0 then
        invalid_arg (Printf.sprintf "Heatbath.generate: %s must be >= 0 (got %d)" name n))
    [
      ("n_thermalize", schedule.n_thermalize);
      ("n_decorrelate", schedule.n_decorrelate);
      ("n_overrelax", schedule.n_overrelax);
      ("n_configs", n_configs);
    ];
  let field = Gauge.warm geom rng ~eps:0.3 in
  let w = work () in
  let plaquettes = ref [] in
  let combined_sweep () =
    sweep_with w (heatbath_subgroup rng ~beta:schedule.beta) field;
    for _ = 1 to schedule.n_overrelax do
      sweep_with w overrelax_subgroup field
    done;
    plaquettes := Gauge.average_plaquette field :: !plaquettes
  in
  for _ = 1 to schedule.n_thermalize do
    combined_sweep ()
  done;
  let configs =
    Array.init n_configs (fun _ ->
        for _ = 1 to schedule.n_decorrelate do
          combined_sweep ()
        done;
        Gauge.copy field)
  in
  (configs, Array.of_list (List.rev !plaquettes))
