let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let sorted xs =
  if Array.length xs = 0 then invalid_arg "Timing: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let percentile xs p =
  let s = sorted xs in
  let pos = p /. 100. *. float_of_int (Array.length s - 1) in
  let lo = truncate pos in
  let hi = min (lo + 1) (Array.length s - 1) in
  s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median xs = percentile xs 50.

(* statistics.quantiles(data, n=4, method='exclusive'): positions
   i·(n+1)/4 on the 1-based order statistics, clamped to [1, n-1]. *)
let quartiles xs =
  let s = sorted xs in
  let ld = Array.length s in
  if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let iqr_frac xs =
  let p25, p50, p75 = quartiles xs in
  (p75 -. p25) /. p50

(* in per mille, so the "≥ 10 beyond" test is exact integer arithmetic *)
let reported_percentile n =
  List.fold_left
    (fun best pm -> if n * (1000 - pm) >= 10 * 1000 then float_of_int pm /. 10. else best)
    50. [ 900; 990; 999 ]

type summary = {
  n : int;
  p25 : float;
  p50 : float;
  p75 : float;
  max : float;
  reported : float;
}

let summarize xs =
  let p25, p50, p75 = quartiles xs in
  let n = Array.length xs in
  {
    n;
    p25;
    p50;
    p75;
    max = Array.fold_left Float.max neg_infinity xs;
    reported = percentile xs (reported_percentile n);
  }
