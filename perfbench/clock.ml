(* Monotonic wall clock, seconds.  [Unix.gettimeofday] ticks in whole
   microseconds, which would quantise a warm-hit latency (tens of
   microseconds) and let medians repeat exactly from run to run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
