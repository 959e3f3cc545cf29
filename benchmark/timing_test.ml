(* The statistics helpers on fixed inputs; the expected quartiles are
   what Python's statistics.quantiles(values, n=4) returns. *)

open Neutron_bench

let failures = ref 0

let close name got want =
  if Float.abs (got -. want) > 1e-12 *. Float.max 1. (Float.abs want) then begin
    incr failures;
    Printf.printf "FAIL %s: got %.17g want %.17g\n" name got want
  end

let quartiles name xs (a, b, c) =
  let p25, p50, p75 = Timing.quartiles xs in
  close (name ^ " p25") p25 a;
  close (name ^ " p50") p50 b;
  close (name ^ " p75") p75 c

let () =
  quartiles "1..10" (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  quartiles "three" [| 3.; 1.; 2. |] (1., 2., 3.);
  quartiles "two" [| 7.; 5. |] (4.5, 6., 7.5);
  quartiles "one" [| 4.2 |] (4.2, 4.2, 4.2);
  quartiles "ten"
    [| 0.8; 1.2; 0.9; 1.0; 1.1; 0.95; 1.05; 1.0; 0.99; 1.01 |]
    (0.9374999999999999, 1.0, 1.0625);
  close "iqr_frac 1..10" (Timing.iqr_frac (Array.init 10 (fun i -> float_of_int (i + 1)))) 1.;
  close "median even" (Timing.median [| 4.; 1.; 3.; 2. |]) 2.5;
  close "median odd" (Timing.median [| 9.; 1.; 5. |]) 5.;
  close "p90 of 1..5" (Timing.percentile [| 5.; 4.; 3.; 2.; 1. |] 90.) 4.6;
  List.iter
    (fun (n, p) -> close (Printf.sprintf "reported_percentile %d" n) (Timing.reported_percentile n) p)
    [ (1, 50.); (19, 50.); (20, 50.); (99, 50.); (100, 90.); (999, 90.); (1000, 99.); (10000, 99.9) ];
  let s = Timing.summarize [| 3.; 1.; 2. |] in
  close "summary max" s.Timing.max 3.;
  close "summary reported" s.Timing.reported 2.;
  if s.Timing.n <> 3 then begin
    incr failures;
    print_endline "FAIL summary n"
  end;
  (match Timing.median [||] with
  | _ ->
    incr failures;
    print_endline "FAIL median of no samples"
  | exception Invalid_argument _ -> ());
  if !failures > 0 then exit 1;
  print_endline "timing_test: ok"
