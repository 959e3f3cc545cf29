(* Low-mode deflation spaces — computed once per gauge configuration
   (Lanczos), reused across the campaign's correlated solves. The
   space is a rank-r orthonormal basis with its Ritz values and the
   hash of the configuration it was computed from: a stale space
   silently degrades to a bad (but convergent) initial guess, which is
   exactly why Check.Deflate_check's DEF001 compares the hashes.

   The two kernels are batched through Multi_blas.block_axpy so the
   whole rank-r combination is one sweep over memory, and every
   reduction is the canonical blocked dot_re — deterministic for any
   pool geometry, like every kernel before it. *)

module Field = Linalg.Field

type t = {
  basis : Field.t array;  (* rank orthonormal fields *)
  values : float array;  (* Ritz values, ascending, > 0 *)
  config_hash : int;  (* hash of the source gauge configuration *)
  bound : float;  (* residual/drift bound the space was built to *)
}

let rank t = Array.length t.basis
let values t = t.values
let basis t = t.basis
let config_hash t = t.config_hash
let bound t = t.bound

let create ?(bound = 1e-6) ~basis ~values ~config_hash () =
  let r = Array.length basis in
  if r = 0 then invalid_arg "Deflate.create: empty basis";
  if Array.length values <> r then
    invalid_arg "Deflate.create: rank mismatch between basis and values";
  let n = Field.length basis.(0) in
  Array.iter
    (fun v ->
      if Field.length v <> n then invalid_arg "Deflate.create: length mismatch")
    basis;
  Array.iter
    (fun l ->
      if not (Float.is_finite l && l > 0.) then
        invalid_arg "Deflate.create: Ritz values must be finite and positive")
    values;
  if not (bound > 0.) then invalid_arg "Deflate.create: bound must be positive";
  { basis = Array.map Field.copy basis; values = Array.copy values;
    config_hash; bound }

let of_lanczos ?bound ~config_hash (values, basis, (_ : Lanczos.stats)) =
  create ?bound ~basis ~values ~config_hash ()

(* ---- configuration hashing ----
   FNV-1a over the raw float64 bits: deterministic across runs and
   processes (unlike Hashtbl.hash on bigarrays, which sees only the
   header). Collisions are irrelevant here — the hash only has to
   *change* when the gauge field does. *)
let field_hash (v : Field.t) =
  let h = ref 0x3b97a9c184f22325 in
  for i = 0 to Field.length v - 1 do
    let bits = Int64.to_int (Int64.bits_of_float v.{i}) in
    h := (!h lxor (bits land 0xffffffff)) * 0x100000001b3;
    h := (!h lxor ((bits lsr 32) land 0xffffffff)) * 0x100000001b3
  done;
  !h land max_int

let gauge_hash (u : Lattice.Gauge.t) = field_hash (Lattice.Gauge.data u)

(* ---- the deflation kernels ---- *)

(* x += sum_i v_i (v_i·r)/λ_i — the Galerkin low-mode correction of
   the guess x given the residual r at x. One batched combination. *)
let augment ?pool ?chunk t ~(r : Field.t) (x : Field.t) =
  let g =
    Array.mapi (fun i v -> Field.dot_re ?pool ?chunk v r /. t.values.(i)) t.basis
  in
  Linalg.Multi_blas.block_axpy ?pool ?chunk [| g |] t.basis [| x |]

let deflated_guess t ~(b : Field.t) =
  let x = Field.create (Field.length b) in
  augment t ~r:b x;
  x

(* Batched form over k residuals: one k×r coefficient tile, one
   block_axpy launch. Row i is bit-identical to [augment] on
   (rs.(i), xs.(i)) — the property the multi-RHS deflation test
   pins. *)
let augment_multi t ~(rs : Field.t array) (xs : Field.t array) =
  let k = Array.length rs in
  if Array.length xs <> k then invalid_arg "Deflate.augment_multi: width";
  if k = 0 then ()
  else begin
    let g =
      Array.map
        (fun r ->
          Array.mapi (fun j v -> Field.dot_re v r /. t.values.(j)) t.basis)
        rs
    in
    Linalg.Multi_blas.block_axpy g t.basis xs
  end

(* r -= sum_i v_i (v_i·r): remove the deflated span from a vector. *)
let project t (r : Field.t) =
  let c = Array.map (fun v -> -.Field.dot_re v r) t.basis in
  Linalg.Multi_blas.block_axpy [| c |] t.basis [| r |]

(* ---- audit quantities (consumed by Check.Deflate_check) ---- *)

let ortho_drift t =
  let r = rank t in
  let worst = ref 0. in
  for i = 0 to r - 1 do
    for j = i to r - 1 do
      let d = Field.dot_re t.basis.(i) t.basis.(j) in
      let target = if i = j then 1. else 0. in
      worst := Float.max !worst (abs_float (d -. target))
    done
  done;
  !worst

let max_residual t ~apply =
  let n = Field.length t.basis.(0) in
  let av = Field.create n in
  let worst = ref 0. in
  Array.iteri
    (fun i v ->
      apply v av;
      Field.axpy (-.t.values.(i)) v av;
      worst := Float.max !worst (Field.norm av))
    t.basis;
  !worst

(* ---- Forecast composition (chained FH solves) ----
   The chronological guess captures the smooth correlation between
   consecutive right-hand sides; the low modes it misses are exactly
   what the deflation space holds. Compose: forecast first, then
   deflate the *residual* of the forecast guess. *)
let combined_guess ?deflate ?forecast ~apply ~(b : Field.t) () =
  let xf =
    match forecast with None -> None | Some f -> Forecast.guess f ~apply ~b
  in
  match (deflate, xf) with
  | None, g -> g
  | Some d, None -> Some (deflated_guess d ~b)
  | Some d, Some x ->
    let n = Field.length b in
    let ax = Field.create n in
    apply x ax;
    Field.sub b ax ax;
    augment d ~r:ax x;
    Some x
