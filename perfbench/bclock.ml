(* Monotonic nanosecond clock (CLOCK_MONOTONIC through bechamel's C stub).
   [Lfrc_util.Clock.now_ns] is gettimeofday scaled through a float: it can
   step backwards and its low bits are lost to rounding, so the benchmark
   never uses it. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
