(* Estimators used throughout the analysis pipeline. Resampling
   (jackknife / bootstrap) is the workhorse for correlator errors, as in
   the paper's gA analysis chain. *)

let mean a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0. a /. float_of_int n

let variance ?(ddof = 1) a =
  let n = Array.length a in
  if n <= ddof then invalid_arg "Stats.variance: too few samples";
  let m = mean a in
  let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. a in
  acc /. float_of_int (n - ddof)

let std ?ddof a = sqrt (variance ?ddof a)

let standard_error a = std a /. sqrt (float_of_int (Array.length a))

let covariance a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Stats.covariance: length mismatch";
  if n < 2 then invalid_arg "Stats.covariance: too few samples";
  let ma = mean a and mb = mean b in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. ((a.(i) -. ma) *. (b.(i) -. mb))
  done;
  !acc /. float_of_int (n - 1)

let correlation a b =
  let sa = std a and sb = std b in
  if sa = 0. || sb = 0. then
    invalid_arg "Stats.correlation: zero variance (undefined, would be NaN)";
  covariance a b /. (sa *. sb)

let min_max a =
  if Array.length a = 0 then invalid_arg "Stats.min_max: empty";
  Array.fold_left
    (fun (lo, hi) x -> ((if x < lo then x else lo), if x > hi then x else hi))
    (a.(0), a.(0))
    a

let percentile a p =
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let frac = rank -. floor rank in
  ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let median a = percentile a 50.

(* ---- Resampling ---- *)

let jackknife_samples a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.jackknife_samples: need >= 2";
  let total = Array.fold_left ( +. ) 0. a in
  Array.init n (fun i -> (total -. a.(i)) /. float_of_int (n - 1))

let jackknife ~estimator a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.jackknife: need >= 2";
  let drop i = Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1)) in
  let thetas = Array.init n (fun i -> estimator (drop i)) in
  let theta_bar = mean thetas in
  let var =
    Array.fold_left
      (fun acc th -> acc +. ((th -. theta_bar) *. (th -. theta_bar)))
      0. thetas
    *. (float_of_int (n - 1) /. float_of_int n)
  in
  (estimator a, sqrt var)

let bootstrap ~rng ~n_boot ~estimator a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.bootstrap: empty";
  let resample () = Array.init n (fun _ -> a.(Rng.int rng n)) in
  let thetas = Array.init n_boot (fun _ -> estimator (resample ())) in
  (mean thetas, std thetas, thetas)

(* Integrated autocorrelation time with a self-consistent window
   (Madras-Sokal): sum rho(t) until t >= 5 * tau_int. *)
let autocorrelation_time a =
  let n = Array.length a in
  if n < 8 then 0.5
  else begin
    let m = mean a in
    let var0 = ref 0. in
    for i = 0 to n - 1 do
      var0 := !var0 +. ((a.(i) -. m) *. (a.(i) -. m))
    done;
    if !var0 = 0. then 0.5
    else begin
      let rho t =
        let acc = ref 0. in
        for i = 0 to n - 1 - t do
          acc := !acc +. ((a.(i) -. m) *. (a.(i + t) -. m))
        done;
        !acc /. !var0
      in
      let rec loop t tau =
        if t >= n / 2 then tau
        else
          let tau' = tau +. rho t in
          if float_of_int t >= 5. *. tau' then tau' else loop (t + 1) tau'
      in
      loop 1 0.5
    end
  end

(* ---- Histograms ---- *)

type histogram = {
  lo : float;
  hi : float;
  counts : int array;
  n_total : int;
}

let histogram ?(bins = 20) a =
  if Array.length a = 0 then invalid_arg "Stats.histogram: empty";
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let lo, hi = min_max a in
  let hi = if hi = lo then lo +. 1. else hi in
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = if b >= bins then bins - 1 else if b < 0 then 0 else b in
      counts.(b) <- counts.(b) + 1)
    a;
  { lo; hi; counts; n_total = Array.length a }

let histogram_bin_centers h =
  let bins = Array.length h.counts in
  let width = (h.hi -. h.lo) /. float_of_int bins in
  Array.init bins (fun i -> h.lo +. ((float_of_int i +. 0.5) *. width))

(* Weighted mean of (value, sigma) pairs; returns (mean, sigma). *)
let weighted_mean pairs =
  if Array.length pairs = 0 then invalid_arg "Stats.weighted_mean: empty";
  let wsum = ref 0. and xsum = ref 0. in
  Array.iter
    (fun (x, s) ->
      if s <= 0. then invalid_arg "Stats.weighted_mean: sigma <= 0";
      let w = 1. /. (s *. s) in
      wsum := !wsum +. w;
      xsum := !xsum +. (w *. x))
    pairs;
  (!xsum /. !wsum, sqrt (1. /. !wsum))
