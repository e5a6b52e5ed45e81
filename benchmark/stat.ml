(* Monotonic clock and the sample buffer.  Percentiles are taken with
   [Rr_util.Stats.percentile] over every recorded sample, never from a
   streaming estimate. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = Float.of_int (now_ns () - t0) *. 1e-9

(* Growable unboxed float buffer for latency samples. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end
