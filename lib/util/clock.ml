(* Monotonic time for solver statistics: bechamel's clock_gettime
   (CLOCK_MONOTONIC) stub, which never steps backwards the way the
   wall clock can under NTP adjustment. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
